"""Division tables built eagerly by solving each equation in turn, kept as
the reference that ``LoopTable.divisions`` is tested against."""


def division_tables(q):
    """(ldiv, rdiv) as lists of lists: ``ldiv[x][y]`` is the z with
    x*z == y and ``rdiv[x][y]`` the z with z*y == x."""
    n = q.order
    ldiv = [[None] * n for _ in range(n)]
    rdiv = [[None] * n for _ in range(n)]
    for x in range(n):
        for z in range(n):
            ldiv[x][q.mul(x, z)] = z
            rdiv[q.mul(z, x)][x] = z
    return ldiv, rdiv
