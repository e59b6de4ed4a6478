"""Subloops, nuclei, center, normality, quotients, nilpotency.

Nuclei are computed by the O(n^3) definition scan; ``nucleus`` scans the
middle and right laws only on members of the left nucleus.

Normality is decided by the standard generators of Inn Q alone, read off
the tables.  That is exact for finite loops: a generator that maps a
finite subloop into itself maps it onto itself.
"""

from __future__ import annotations

from .core import LoopTable
from .errors import IllDefined, NotASubloop, NotNormal


class SubloopSet:
    """A subset of a loop's ids, stored as a bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n, mask):
        self.n = n
        self.mask = mask

    @classmethod
    def from_members(cls, n, members):
        mask = 0
        for x in members:
            if not 0 <= x < n:
                raise ValueError(f"id {x} out of range for order {n}")
            mask |= 1 << x
        return cls(n, mask)

    def members(self):
        return tuple(x for x in range(self.n) if self.mask >> x & 1)

    def __contains__(self, x):
        return 0 <= x < self.n and bool(self.mask >> x & 1)

    def __len__(self):
        return self.mask.bit_count()

    def __eq__(self, other):
        return isinstance(other, SubloopSet) and (self.n, self.mask) == (other.n, other.mask)

    def __hash__(self):
        return hash((self.n, self.mask))

    def __le__(self, other):
        return self.mask & ~other.mask == 0

    def __repr__(self):
        return f"SubloopSet({list(self.members())})"


def is_subloop(q, s):
    """Closure of the subset under mul, ldiv and rdiv, with 0 present."""
    if 0 not in s:
        return False
    mem = s.members()
    for x in mem:
        for y in mem:
            if q.mul(x, y) not in s or q.ldiv(x, y) not in s or q.rdiv(x, y) not in s:
                return False
    return True


def left_nucleus(q):
    n = q.order
    rows = q.rows
    out = []
    for a in range(n):
        arow = rows[a]
        if all(arow[rows[x][y]] == rows[arow[x]][y] for x in range(n) for y in range(n)):
            out.append(a)
    return SubloopSet.from_members(n, out)


def middle_nucleus(q):
    n = q.order
    rows = q.rows
    out = []
    for a in range(n):
        if all(rows[x][rows[a][y]] == rows[rows[x][a]][y] for x in range(n) for y in range(n)):
            out.append(a)
    return SubloopSet.from_members(n, out)


def right_nucleus(q):
    n = q.order
    rows = q.rows
    out = []
    for a in range(n):
        if all(rows[x][rows[y][a]] == rows[rows[x][y]][a] for x in range(n) for y in range(n)):
            out.append(a)
    return SubloopSet.from_members(n, out)


def nucleus(q):
    """N_lambda & N_mu & N_rho: the middle and right laws are tested only
    on the nonidentity members of the left nucleus.  They hold whenever x
    or y is 0, so those pairs are skipped."""
    rows = q.rows
    inner = range(1, q.order)
    out = [0]
    for a in left_nucleus(q).members()[1:]:
        arow = rows[a]
        if all(
            rows[x][arow[y]] == rows[rows[x][a]][y] and rows[x][rows[y][a]] == rows[rows[x][y]][a]
            for x in inner
            for y in inner
        ):
            out.append(a)
    return SubloopSet.from_members(q.order, out)


def center(q):
    nuc = nucleus(q)
    n = q.order
    out = [a for a in nuc.members() if all(q.mul(a, x) == q.mul(x, a) for x in range(n))]
    return SubloopSet.from_members(n, out)


def subloop_generated(q, seed):
    """Smallest subloop containing the seed ids (worklist closure)."""
    mem = {0}
    mem.update(seed)
    work = list(mem)
    while work:
        x = work.pop()
        for y in tuple(mem):
            for z in (q.mul(x, y), q.mul(y, x), q.ldiv(x, y), q.ldiv(y, x), q.rdiv(x, y), q.rdiv(y, x)):
                if z not in mem:
                    mem.add(z)
                    work.append(z)
    return SubloopSet.from_members(q.order, mem)


def subloop_table(q, s):
    """The subloop as a LoopTable of its own, members reindexed in
    ascending order.  The identity keeps id 0."""
    if not is_subloop(q, s):
        raise NotASubloop(f"{s} is not closed")
    mem = s.members()
    index = {x: i for i, x in enumerate(mem)}
    rows = [[index[q.mul(a, b)] for b in mem] for a in mem]
    return LoopTable(rows)


def all_subloops(q):
    """Every subloop, smallest first.  Exponential in principle; meant for
    small orders where the subloop lattice is tiny."""
    found = {subloop_generated(q, ())}
    frontier = [subloop_generated(q, (x,)) for x in range(q.order)]
    for s in frontier:
        found.add(s)
    grew = True
    while grew:
        grew = False
        cur = list(found)
        for s in cur:
            for x in range(q.order):
                if x in s:
                    continue
                bigger = subloop_generated(q, s.members() + (x,))
                if bigger not in found:
                    found.add(bigger)
                    grew = True
    return sorted(found, key=lambda s: (len(s), s.mask))


def is_normal_subloop(q, s):
    """Whether the subloop s is invariant under every inner mapping.

    Only the standard generators of Inn Q (Bruck, 1946) are checked, read
    off the tables: L(x,y) maps s to (xy)\\(x(ys)), R(x,y) to ((sy)x)/(yx)
    and T(x) to x\\(sx).  In a finite loop each generator is a permutation,
    so one that maps s into s maps it onto s, and the group they generate
    does too.  In an infinite loop that fails: ``loopkit.bk`` builds a
    subloop that every standard generator maps into itself and that is
    not normal.
    """
    if not is_subloop(q, s):
        raise NotASubloop(f"{s!r} is not a subloop")
    rows, ld, rd = q.rows, q._ldiv, q._rdiv
    mask, mem = s.mask, s.members()
    for x in range(q.order):
        xrow, xld = rows[x], ld[x]
        if not all(mask >> xld[rows[m][x]] & 1 for m in mem):  # T(x)
            return False
        for y in range(q.order):
            yrow, xy_ld, yx = rows[y], ld[xrow[y]], rows[y][x]
            for m in mem:
                if not mask >> xy_ld[xrow[yrow[m]]] & 1:  # L(x,y)
                    return False
                if not mask >> rd[rows[rows[m][y]][x]][yx] & 1:  # R(x,y)
                    return False
    return True


def quotient(q, s):
    """The factor loop Q/S and the projection id -> coset index.

    Cosets are indexed by their least member, ascending, so the coset of 0
    is the identity of the quotient.  Raises NotNormal if s is not normal
    and IllDefined if coset multiplication depends on representatives.
    """
    if not is_normal_subloop(q, s):
        raise NotNormal(f"{s!r} is not normal")
    n = q.order
    coset_of = [-1] * n
    reps = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        members = sorted(q.mul(x, m) for m in s.members())
        for y in members:
            if coset_of[y] >= 0:
                raise IllDefined("left cosets do not partition")
            coset_of[y] = idx
        reps.append(members[0])
    m = len(reps)
    rows = [[0] * m for _ in range(m)]
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            rows[i][j] = coset_of[q.mul(a, b)]
    for x in range(n):
        for y in range(n):
            if coset_of[q.mul(x, y)] != rows[coset_of[x]][coset_of[y]]:
                raise IllDefined("coset product depends on representatives")
    table = LoopTable(tuple(tuple(r) for r in rows), check=False)
    return table, tuple(coset_of)


def nilpotency_class(q):
    """Length of the upper central series, or None if it stalls below Q."""
    current = q
    steps = 0
    while current.order > 1:
        z = center(current)
        if len(z) == 1:
            return None
        current, _ = quotient(current, z)
        steps += 1
    return steps
