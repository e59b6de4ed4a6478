"""The nuclei through fixed points of inner mappings, kept as the
reference that the nuclei of ``loopkit.structure``, decided by the
compiled identity checker, are tested against.

Under this package's composition convention the fixed points of the
L-family generators are the *right* nucleus and the fixed points of the
R-family generators are the *left* nucleus (verified exhaustively on every
loop table of order <= 6), while the commutators [L(x), R(y)] fix exactly
the middle nucleus.
"""

from loopkit.structure import SubloopSet


def fixed_points(perms):
    """Ids fixed by every permutation in the iterable."""
    perms = list(perms)
    if not perms:
        return frozenset()
    n = perms[0].degree
    out = set(range(n))
    for p in perms:
        out = {x for x in out if p.images[x] == x}
        if not out:
            break
    return frozenset(out)


def nuclei_from_inner_mappings(q):
    """(left, middle, right) nuclei via fixed points of inner mappings.

    Independent of the identity checker: left comes from the R-family
    generators, right from the L-family, middle from the commutators.
    """
    n = q.order
    ll = (q.L(q.mul(x, y)).inverse() * q.L(x) * q.L(y) for x in range(n) for y in range(n))
    rr = (q.R(q.mul(y, x)).inverse() * q.R(x) * q.R(y) for x in range(n) for y in range(n))
    mid = (q.L(y).inverse() * q.R(x).inverse() * q.L(y) * q.R(x)
           for y in range(n) for x in range(n))
    left = SubloopSet.from_members(n, fixed_points(rr))
    right = SubloopSet.from_members(n, fixed_points(ll))
    middle = SubloopSet.from_members(n, fixed_points(mid))
    return left, middle, right
