"""Permutations and the translation groups of a loop.

Composition convention, fixed once for the whole package:

    (p * q)(x) == p(q(x))

i.e. the right factor acts first.  A group is held as a stabilizer chain
and never lists its elements.  Commutators follow the convention
``[a, b] = a.inverse() * b.inverse() * a * b``; a calibration test pins
this against the translation identities satisfied by the corpus.
"""

from __future__ import annotations

from math import prod

from .errors import DegreeMismatch


class Perm:
    """A permutation of 0..n-1 stored as its image sequence."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        if len(self.images) != len(other.images):
            raise DegreeMismatch(f"{len(self.images)} != {len(other.images)}")
        return Perm(map(self.images.__getitem__, other.images))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm(inv)

    def is_identity(self):
        return self.images == tuple(range(len(self.images)))

    def __repr__(self):
        return f"Perm({list(self.images)})"

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)


def _sift(chain, k, h):
    """(residue, j): h times, at each level from k on, the transversal
    element that makes it fix that level's base point.  j is the first level
    with no such element, else len(chain)."""
    for j in range(k, len(chain)):
        base, _gens, transversal = chain[j]
        t = transversal.get(h.images.index(base))
        if t is None:
            return h, j
        h = h * t
    return h, len(chain)


def _chain(generators):
    """The stabilizer chain of the group generated, by deterministic
    Schreier-Sims (Sims, 1970; Seress, *Permutation Group Algorithms*, 2003).

    Each level's pending (orbit point, generator) pairs either grow its
    orbit or give a Schreier generator; a residue that is not the identity
    becomes a strong generator of each level it reached.  The deepest
    level with pending pairs goes first, so every sift is exact.

    Returns (chain, kept).  An input that sifts to the identity lies in the
    group of the inputs before it and is dropped, so ``kept``, the inputs
    not dropped in their given order, generates the same group.
    """
    chain, todo, kept = [], [], []

    def add(g, first, last):
        """Make g a strong generator of levels first..last; last may be new."""
        if last == len(chain):
            base = next(x for x, v in enumerate(g.images) if x != v)
            chain.append((base, [], {base: Perm.identity(g.degree)}))
            todo.append([])
        for k in range(first, last + 1):
            chain[k][1].append(g)
            todo[k].extend((y, g) for y in chain[k][2])

    for g in generators:
        h, i = _sift(chain, 0, g)
        if i == len(chain) and h.is_identity():
            continue
        kept.append(g)
        add(h, 0, i)
        while i >= 0:
            _base, gens, transversal = chain[i]
            if not todo[i]:
                i -= 1
                continue
            y, s = todo[i].pop()
            z, u = s(y), s * transversal[y]
            if z not in transversal:
                transversal[z] = u
                todo[i].extend((z, t) for t in gens)
                continue
            h, j = _sift(chain, i + 1, u.inverse() * transversal[z])
            if j < len(chain) or not h.is_identity():
                add(h, i + 1, j)
                i = j
    return chain, kept


class PermGroup:
    """A permutation group held as a stabilizer chain.

    Level k of ``chain`` is (base point, strong generators fixing the base
    points above it, transversal).  The transversal maps each point y of
    the base point's orbit to an element taking the base point to y.  The
    order is the product of the orbit sizes and membership is a sift.
    ``generators`` generate the group; for a group from ``closure`` they
    are the inputs that ``_chain`` kept, and equality sifts only those.
    """

    __slots__ = ("degree", "generators", "chain")

    def __init__(self, degree, generators, chain):
        self.degree = degree
        self.generators = tuple(generators)
        self.chain = chain

    @property
    def order(self):
        return prod(len(transversal) for _base, _gens, transversal in self.chain)

    def __len__(self):
        return self.order

    def __contains__(self, p):
        if p.degree != self.degree:
            return False
        h, j = _sift(self.chain, 0, p)
        return j == len(self.chain) and h.is_identity()

    def __eq__(self, other):
        return (isinstance(other, PermGroup) and self.order == other.order
                and all(g in other for g in self.generators)
                and all(g in self for g in other.generators))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def closure(generators):
    """The group generated by ``generators``, which fix its degree.  Its
    ``generators`` are the inputs kept by ``_chain``: a subsequence of
    ``generators`` that generates the same group, empty only when every
    input is the identity.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator to fix the degree")
    degrees = {g.degree for g in gens}
    if len(degrees) > 1:
        raise DegreeMismatch(f"generators of degrees {sorted(degrees)}")
    chain, kept = _chain(gens)
    return PermGroup(gens[0].degree, kept, chain)


def mlt(q):
    """Multiplication group: closure of all left and right translations."""
    return closure([q.L(x) for x in range(q.order)] + [q.R(x) for x in range(q.order)])


def mlt_left(q):
    return closure([q.L(x) for x in range(q.order)])


def mlt_right(q):
    return closure([q.R(x) for x in range(q.order)])


def stabilizer_of_0(group):
    """The stabilizer of 0 in ``group``, whose chain has 0 as its first
    base point: level 1 of the chain on.  No chain is built.

    For Mlt, Mlt_left and Mlt_right this is the inner mapping group and
    the left and right inner mapping groups (Bruck, 1946): by Schreier's
    lemma over the transversal {L(a)}, the stabilizer of 0 in Mlt_left is
    generated by the maps L(x*y)^-1 L(x) L(y), and mirrored for Mlt_right.
    0 is the first base point of each: L(0) and R(0) are the identity, so
    the first generator added is L(1) or R(1), and each moves 0.
    """
    if group.chain and group.chain[0][0] != 0:
        raise ValueError("the chain's first base point is not 0")
    chain = group.chain[1:]
    return PermGroup(group.degree, chain[0][1] if chain else (), chain)


def inn(q):
    """Inner mapping group: the stabilizer of 0 in Mlt."""
    return stabilizer_of_0(mlt(q))


def commutator_LR(q, y, x):
    """[L(y), R(x)] under the a^-1 b^-1 a b convention, read off the table
    as z -> y \\ ((y*(z*x)) / x)."""
    rows, (ldiv, rdiv) = q.rows, q.divisions()
    ly, ldy = rows[y], ldiv[y]
    return Perm(ldy[rdiv[ly[lz[x]]][x]] for lz in rows)
