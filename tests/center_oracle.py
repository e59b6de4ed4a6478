"""The center, the quotient by a normal subloop and the nilpotency class
from their definitions, kept as the reference that the per-loop context of
``loopkit.varieties`` is tested against.
"""

from loopkit.core import LoopTable
from loopkit.structure import SubloopSet


def center(q):
    """The a that commute and associate with every x and y, in each place."""
    n, mul = q.order, q.mul
    return SubloopSet.from_members(n, [
        a for a in range(n)
        if all(mul(a, x) == mul(x, a)
               and mul(a, mul(x, y)) == mul(mul(a, x), y)
               and mul(x, mul(a, y)) == mul(mul(x, a), y)
               and mul(x, mul(y, a)) == mul(mul(x, y), a)
               for x in range(n) for y in range(n))
    ])


def quotient(q, s):
    """Q/S on the cosets xS, each indexed by its least member, ascending.
    Raises ValueError unless the cosets partition Q and every product of
    members of two cosets lies in one coset."""
    n, mem = q.order, s.members()
    cosets = sorted({frozenset(q.mul(x, m) for m in mem) for x in range(n)}, key=min)
    if sum(map(len, cosets)) != n:
        raise ValueError("the cosets overlap")
    index = {x: i for i, c in enumerate(cosets) for x in c}
    rows = []
    for a in cosets:
        row = []
        for b in cosets:
            products = {index[q.mul(x, y)] for x in a for y in b}
            if len(products) != 1:
                raise ValueError("a product of cosets is not a coset")
            row.append(products.pop())
        rows.append(row)
    return LoopTable(rows)


def nilpotency_class(q):
    """The steps of Q, Q/Z(Q), ... down to the trivial loop, or None when a
    term has trivial center first."""
    steps = 0
    while q.order > 1:
        z = center(q)
        if len(z) == 1:
            return None
        q = quotient(q, z)
        steps += 1
    return steps
