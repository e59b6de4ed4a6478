"""Breadth-first group closure, kept as the reference that the stabilizer
chains of ``loopkit.perms`` are tested against, the textbook normality
test by conjugating generators, and the standard generators of the inner
mapping group, which the tests close to check ``loopkit.perms.inn``."""

from loopkit.perms import Perm


def standard_generators(q):
    """The three classical generator families of the inner mapping group.

    Returns a list of ((kind, x, y), Perm) with kind one of "LL", "RR",
    "TR": LL is L(x*y)^-1 L(x) L(y), RR is R(y*x)^-1 R(x) R(y), and TR is
    L(x)^-1 R(x) (tagged with y == 0).
    """
    L, R, n = q.L, q.R, q.order
    return ([(("LL", x, y), L(q.mul(x, y)).inverse() * L(x) * L(y))
             for x in range(n) for y in range(n)]
            + [(("RR", x, y), R(q.mul(y, x)).inverse() * R(x) * R(y))
               for x in range(n) for y in range(n)]
            + [(("TR", x, 0), L(x).inverse() * R(x)) for x in range(n)])


def closure_elements(generators):
    """Every element of the group the generators generate, by breadth-first
    search from the identity; the generators must share one degree."""
    gens = list(generators)
    els = {Perm.identity(gens[0].degree)}
    frontier = list(els)
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = g * p
                if q not in els:
                    els.add(q)
                    new.append(q)
        frontier = new
    return frozenset(els)


def is_normal_subgroup(h, g):
    """Whether h is normal in g: every generator of h conjugated by every
    generator of g sifts into h."""
    return all(x * y * x.inverse() in h for x in g.generators for y in h.generators)
