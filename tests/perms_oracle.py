"""Breadth-first group closure, kept as the reference that the stabilizer
chains of ``loopkit.perms`` are tested against, and the textbook
normality test by conjugating generators."""

from loopkit.perms import Perm


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
