"""Breadth-first group closure, kept as the reference that the stabilizer
chains of ``loopkit.perms`` are tested against, the listing of a group's
elements from its chain, the textbook normality test by conjugating
generators, and the standard generators of the inner mapping group, which
the tests close to check ``loopkit.perms.inn``."""

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


def elements(group):
    """Every element of a ``loopkit.perms.PermGroup``, listed from its
    stabilizer chain: each element is one product of transversal elements,
    one from each level, the deepest acting first."""
    els = [Perm.identity(group.degree)]
    for _base, _gens, transversal in reversed(group.chain):
        els = [t * g for t in transversal.values() for g in els]
    return frozenset(els)


def is_normal_subgroup(h, h_generators, g_generators):
    """Whether the group h, generated by ``h_generators``, is normal in the
    group generated by ``g_generators``: every one of ``h_generators``
    conjugated by every one of ``g_generators`` lies in h.  The lists are
    the caller's, not the ``generators`` a group keeps."""
    return all(x * y * x.inverse() in h for x in g_generators for y in h_generators)
