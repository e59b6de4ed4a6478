"""Subloops, nuclei, center, normality, quotients, nilpotency.

A subset that holds 0 and is closed under multiplication is a subloop:
in a finite loop each translation maps it injectively into, hence onto,
itself, so it is closed under both divisions too.  Subloops are therefore
read off the multiplication table alone.

The nuclei and the center are decided by the compiled checker of
``loopkit.identities`` with x fixed: each is the set of a at which its
laws hold, a(xy) = (ax)y for the left nucleus and so on.  The center
tests xa = ax and the left and middle laws, which give the right one.
Each law holds by the loop laws when a, x or y is 0, so 0 counts as a
member and only nonzero a, x and y are tested; ``nucleus`` tests the
middle and right laws only on members of the left nucleus.

Normality is decided by the standard generators of Inn Q alone, read off
the tables.  That is exact for finite loops: a generator that maps a
finite subloop into itself maps it onto itself.

``nilpotency_class`` reads ``loopkit.varieties.Context``, the per-loop
cache that ``loopkit check``, the order-16 report and search leaves read,
and the one place that walks the upper central series.
"""

from __future__ import annotations

from .core import LoopTable
from .errors import NotASubloop, NotNormal
from .identities import compile_identity, holders, mirror


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
    """Whether the subset holds 0 and is closed under multiplication,
    which in a finite loop makes it closed under both divisions."""
    if 0 not in s:
        return False
    rows, mask, mem = q.rows, s.mask, s.members()
    return all(mask >> rows[x][y] & 1 for x in mem for y in mem)


# The nucleus laws and commutativity, each with a as x: a(xy) = (ax)y,
# x(ay) = (xa)y, (zy)a = z(ya), the left law's mirror, and xa = ax.
_LEFT = compile_identity("(x*(y*z)) = ((x*y)*z)")
_MIDDLE = compile_identity("(y*(x*z)) = ((y*x)*z)")
_RIGHT = mirror(_LEFT)
_COMMUTE = compile_identity("(y*x) = (x*y)")


def _members_by_laws(q, laws):
    """The a at which every one of ``laws`` holds for all values of the
    other variables.  Each law holds by the loop laws when a variable is
    0, so 0 is a member and only nonzero a, x and y are tested; each law
    tests only the a that passed the ones before it."""
    nonzero = range(1, q.order)
    members = nonzero
    for law in laws:
        members = holders(q, law, members, nonzero)
    return SubloopSet.from_members(q.order, (0, *members))


def left_nucleus(q):
    """N_lambda: the a with a(xy) = (ax)y for all x, y."""
    return _members_by_laws(q, (_LEFT,))


def middle_nucleus(q):
    """N_mu: the a with x(ay) = (xa)y for all x, y."""
    return _members_by_laws(q, (_MIDDLE,))


def right_nucleus(q):
    """N_rho: the a with x(ya) = (xy)a for all x, y."""
    return _members_by_laws(q, (_RIGHT,))


def nucleus(q):
    """N_lambda & N_mu & N_rho: the middle and right laws are tested only
    on the members of the left nucleus."""
    return _members_by_laws(q, (_LEFT, _MIDDLE, _RIGHT))


def center(q):
    """The members of the nucleus that commute with every element.
    Commutativity, the cheapest law to test, goes first.  The right law
    then follows from the left and middle ones and is not tested:
    x(ya) = x(ay) = (xa)y = (ax)y = a(xy) = (xy)a."""
    return _members_by_laws(q, (_COMMUTE, _LEFT, _MIDDLE))


def subloop_generated(q, seed):
    """Smallest subloop containing the seed ids: the closure of the seed
    and 0 under multiplication (worklist)."""
    rows = q.rows
    mem = {0}
    mem.update(seed)
    work = list(mem)
    while work:
        x = work.pop()
        xrow = rows[x]
        for y in tuple(mem):
            for z in (xrow[y], rows[y][x]):
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
    small orders where the subloop lattice is tiny.

    Each subloop found is extended once by each element outside it.  That
    reaches every subloop S: S is the end of a chain <s1> < <s1, s2> < ...
    of subloops each generated by the last and one more member of S.
    """
    trivial = subloop_generated(q, ())
    found = {trivial}
    work = [trivial]
    while work:
        s = work.pop()
        members = s.members()
        for x in range(q.order):
            if x not in s:
                bigger = subloop_generated(q, members + (x,))
                if bigger not in found:
                    found.add(bigger)
                    work.append(bigger)
    return sorted(found, key=lambda s: (len(s), s.mask))


def is_normal_subloop(q, s):
    """Whether the subloop s is invariant under every inner mapping.

    Only the standard generators of Inn Q (Bruck, 1946) are checked, read
    off the tables: L(x,y) maps s to (xy)\\(x(ys)), R(x,y) to ((sy)x)/(yx)
    and T(x) to x\\(sx).  In a finite loop each generator is a permutation,
    so one that maps s into s maps it onto s, and the group they generate
    does too.  In an infinite loop that fails: ``loopkit.bk`` builds a
    subloop that every standard generator maps into itself and that is
    not normal.  {0} and Q are normal in every loop, so they are answered
    without building the division tables.
    """
    if not is_subloop(q, s):
        raise NotASubloop(f"{s!r} is not a subloop")
    if len(s) in (1, q.order):
        return True
    rows, (ld, rd) = q.rows, q.divisions()
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
    is the identity of the quotient.  Raises NotNormal if s is not normal.
    For a normal subloop the cosets xS partition Q and the coset of a
    product depends only on the cosets of its factors (Bruck, 1946), so
    each coset is represented by the x that opens it, its least member.
    """
    if not is_normal_subloop(q, s):
        raise NotNormal(f"{s!r} is not normal")
    rows, mem = q.rows, s.members()
    coset_of = [-1] * q.order
    reps = []
    for x, xrow in enumerate(rows):
        if coset_of[x] < 0:
            for m in mem:
                coset_of[xrow[m]] = len(reps)
            reps.append(x)
    table = LoopTable([[coset_of[rows[a][b]] for b in reps] for a in reps], check=False)
    return table, tuple(coset_of)


def nilpotency_class(q):
    """Length of the upper central series, or None if it stalls below Q."""
    from .varieties import Context  # varieties imports this module
    return Context(q).nilpotency_class
