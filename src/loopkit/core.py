"""Finite loops stored as fully materialized Cayley tables.

Conventions used everywhere in this package:

* elements of a loop of order n are the ids 0..n-1, and 0 is always the
  two-sided identity;
* ``ldiv(x, y)`` is the unique z with ``x*z == y``; ``rdiv(x, y)`` is the
  unique z with ``z*y == x``;
* ``left_inv(x)`` is ``rdiv(0, x)`` and ``right_inv(x)`` is ``ldiv(x, 0)``;
* tables are immutable once built and may be shared freely.

Division tables are built on first use, by ``LoopTable.divisions``, and
kept: a table that is only multiplied, keyed or scanned for its nuclei
never builds them.  After that, every element level operation is an O(1)
lookup.

Canonical forms and isomorphism share one labeling engine, the walk: label
0, then, until every element has a label, give the next label to a
generator outside the labeled part and close under multiplication in an
order that depends only on labels, never on ids.  Each walk labels every
element: in a finite loop a set closed under multiplication is a subloop,
because each translation is injective on it and therefore onto.
``canonical_table`` is the least relabeled table over the walks whose
generator at each step is an unlabeled element of least translation
fingerprint, the cycle types of its left and right translations; cycle
types are memoized by image tuple, at most 8,192 of them, which holds
every permutation of order 7 or less.  An isomorphism preserves
fingerprints, so it carries these walks of one loop onto those of the
other, and the table is an invariant that is itself a copy of the loop: a
complete invariant.  ``isomorphic`` searches the walks of one loop for
the table of the other's.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .errors import (
    BadDimensions,
    NoIdentity,
    NotLatin,
    OrderMismatch,
    OrderTooLarge,
    ParseError,
)
from .perms import Perm

MAX_ORDER = 64


class LoopTable:
    """A loop of order n as an immutable row-major Cayley table."""

    __slots__ = ("order", "rows", "_ldiv", "_rdiv")

    def __init__(self, rows, check=True, max_order=None):
        rows = tuple(tuple(row) for row in rows)
        if check:
            _check_table(rows, max_order if max_order is not None else MAX_ORDER)
        self.order = len(rows)
        self.rows = rows
        self._ldiv = self._rdiv = None

    def divisions(self):
        """The division tables ``(ldiv, rdiv)``, built on first use:
        ``ldiv[x][y]`` is x\\y and ``rdiv[x][y]`` is x/y."""
        if self._ldiv is None:
            rows = self.rows
            ld = [[0] * self.order for _ in rows]
            rd = [[0] * self.order for _ in rows]
            for x, row in enumerate(rows):
                ldx = ld[x]
                for y, v in enumerate(row):  # x*y == v
                    ldx[v] = y
                    rd[v][y] = x
            self._ldiv = tuple(map(tuple, ld))
            self._rdiv = tuple(map(tuple, rd))
        return self._ldiv, self._rdiv

    def mul(self, x, y):
        return self.rows[x][y]

    def ldiv(self, x, y):
        """The unique z with x*z == y."""
        return (self._ldiv or self.divisions()[0])[x][y]

    def rdiv(self, x, y):
        """The unique z with z*y == x."""
        return (self._rdiv or self.divisions()[1])[x][y]

    def left_inv(self, x):
        """x^lambda: the unique z with z*x == 0."""
        return (self._rdiv or self.divisions()[1])[0][x]

    def right_inv(self, x):
        """x^rho: the unique z with x*z == 0."""
        return (self._ldiv or self.divisions()[0])[x][0]

    def L(self, x):
        """Left translation y -> x*y as a permutation."""
        return Perm(self.rows[x])

    def R(self, x):
        """Right translation y -> y*x as a permutation."""
        return Perm(tuple(self.rows[y][x] for y in range(self.order)))

    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        return isinstance(other, LoopTable) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"LoopTable(order={self.order})"


def _check_table(rows, max_order):
    n = len(rows)
    if n == 0:
        raise BadDimensions("empty table")
    if n > max_order:
        raise OrderTooLarge(f"order {n} exceeds maximum {max_order}")
    for row in rows:
        if len(row) != n:
            raise BadDimensions(f"expected {n} columns, found {len(row)}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise BadDimensions(f"entry {v!r} out of range 0..{n - 1}")
    for i, row in enumerate(rows):
        if len(set(row)) != n:
            raise NotLatin("row", i)
    for j in range(n):
        if len({rows[i][j] for i in range(n)}) != n:
            raise NotLatin("col", j)
    for k in range(n):
        if rows[0][k] != k or rows[k][0] != k:
            raise NoIdentity("element 0 is not a two-sided identity")


def opposite(q):
    """The loop with arguments swapped: x*y in the result is y*x in q."""
    n = q.order
    return LoopTable(
        tuple(tuple(q.rows[y][x] for y in range(n)) for x in range(n)), check=False
    )


def direct_product(q1, q2, max_order=None):
    """Componentwise product; (x1, x2) is encoded as x1 * q2.order + x2."""
    n1, n2 = q1.order, q2.order
    limit = max_order if max_order is not None else MAX_ORDER
    if n1 * n2 > limit:
        raise OrderTooLarge(f"product order {n1 * n2} exceeds maximum {limit}")
    rows = []
    for x1 in range(n1):
        for x2 in range(n2):
            row = []
            for y1 in range(n1):
                r1 = q1.rows[x1][y1] * n2
                row.extend(r1 + q2.rows[x2][y2] for y2 in range(n2))
            rows.append(tuple(row))
    return LoopTable(tuple(rows), check=False)


def principal_isotope(q, a, b):
    """The isotope x.y = rdiv(x, b) * ldiv(a, y), relabeled so 0 is its identity.

    The identity of the raw isotope is a*b; the relabeling sigma swaps 0
    with a*b and leaves every other id in place.  sigma is an involution,
    so row sigma(x) of the result is built whole, its column c reading the
    raw product at y = sigma(c).
    """
    n = q.order
    e = q.mul(a, b)
    sigma = list(range(n))
    sigma[0], sigma[e] = e, 0
    ld, rd = q.divisions()
    lda = ld[a]
    cols = [lda[s] for s in sigma]
    rows = q.rows
    xb_rows = [rows[rd[s][b]] for s in sigma]
    return LoopTable(
        tuple(tuple([sigma[xb_row[y]] for y in cols]) for xb_row in xb_rows), check=False
    )


def _translation_fingerprints(q):
    """Per element: cycle type of its left and right translations.

    Invariant under isomorphism, used to cut the search for one.
    """
    rows = q.rows
    return [(_cycle_type(row), _cycle_type(col)) for row, col in zip(rows, zip(*rows))]


@lru_cache(maxsize=8192)
def _cycle_type(images):
    """Sorted cycle lengths; each cycle is counted from its least element,
    the one whose walk returns to it before reaching a smaller element.

    Memoized on the image tuple, since the many tables keyed in one run
    share most of their translations.  The memo keeps at most 8,192
    entries: room for every permutation of order 7 or less (1! + ... + 7!
    = 5,913), and a few MB at most even at order 64.
    """
    lens = []
    for s, t in enumerate(images):
        k = 1
        while t > s:
            t = images[t]
            k += 1
        if t == s:
            lens.append(k)
    lens.sort()
    return tuple(lens)


# ---------------------------------------------------------------------------
# walks: the one labeling engine behind canonical forms and isomorphism


def _walks(q, pick):
    """Yield ``(order, label)`` for each walk of q (see the module
    docstring), depth first.

    For each newly labeled element k in turn, the closure gives the next
    label to each unlabeled product of k with an earlier label j <= k,
    both ways round, and stops once every element has a label.
    ``pick(step, outside)`` chooses the generators to try at that step
    from the unlabeled ids ``outside`` (ascending).
    ``order[i]`` is the element labeled i and ``label[x]`` the label of x;
    both lists are reused and change once the walk resumes.
    """
    n = q.order
    rows = q.rows
    cols = tuple(zip(*rows))
    order = [0]
    label = [-1] * n
    label[0] = 0

    def walk(step):
        m = len(order)
        if m == n:
            yield order, label
            return
        for g in pick(step, [x for x in range(n) if label[x] < 0]):
            label[g] = m
            order.append(g)
            size = m + 1
            k = m
            while k < size < n:
                x = order[k]
                row = rows[x]
                col = cols[x]
                for y in order[1:k + 1]:
                    z = row[y]
                    if label[z] < 0:
                        label[z] = size
                        order.append(z)
                        size += 1
                    z = col[y]
                    if label[z] < 0:
                        label[z] = size
                        order.append(z)
                        size += 1
                k += 1
            yield from walk(step + 1)
            for z in order[m:]:
                label[z] = -1
            del order[m:]

    return walk(0)


def _relabeled_rows(q, order, label):
    """The rows of q under a walk's labeling, lazily, row 0 first."""
    rows = q.rows
    for x in order:
        row = rows[x]
        yield [label[row[y]] for y in order]


def _least_rows(q):
    """The rows of ``canonical_table(q)`` (see ``canonical_key``); a walk
    is dropped at its first row that is larger than the best so far."""
    fps = _translation_fingerprints(q)

    def least(step, outside):
        low = min(fps[x] for x in outside)
        return [x for x in outside if fps[x] == low]

    best = None
    for order, label in _walks(q, least):
        if best is None:
            best = list(_relabeled_rows(q, order, label))
            continue
        rows = _relabeled_rows(q, order, label)
        for i, row in enumerate(rows):
            if row != best[i]:
                if row < best[i]:
                    best[i:] = [row, *rows]
                break
    return best


def canonical_table(q):
    """The canonical form of q (see ``canonical_key``) as a LoopTable."""
    return LoopTable(_least_rows(q), check=False)


def canonical_key(q):
    """The flattened ``canonical_table``: equal exactly for isomorphic loops.

    The table is the least relabeled table of q over its walks whose
    generator at each step is an unlabeled element of least translation
    fingerprint.  An isomorphism q -> q' preserves fingerprints, so at each
    step it carries the least-fingerprint elements outside a walk of q onto
    those outside the image walk of q'; it therefore carries each such walk
    of q to one of q' with an equal table, and the key is an invariant.
    The key is itself a relabeled copy of q, so equal keys mean isomorphic
    loops.
    """
    return tuple(chain.from_iterable(_least_rows(q)))


def isomorphic(q1, q2):
    """An isomorphism q1 -> q2 as a Perm, or None.

    The target is the table of q1's greedy walk, which always picks the
    smallest id still outside.  q2 is walked with each step's generator
    restricted to the elements whose translation fingerprints match those
    of q1's generator at that step, until a walk gives the target table.
    The map from the i-th element of q1's walk to the i-th of q2's is then
    an isomorphism, and any isomorphism carries q1's walk to one of these.
    """
    require_same_order(q1, q2)
    fp1 = _translation_fingerprints(q1)
    fp2 = _translation_fingerprints(q2)
    if sorted(fp1) != sorted(fp2):
        return None
    gens = []

    def greedy(step, outside):
        gens.append(outside[0])
        return outside[:1]

    def matching(step, outside):
        if step == len(gens):
            return []
        return [y for y in outside if fp2[y] == fp1[gens[step]]]

    order1, label1 = next(_walks(q1, greedy))
    target = list(_relabeled_rows(q1, order1, label1))
    for order2, label2 in _walks(q2, matching):
        if all(row == want for row, want in zip(_relabeled_rows(q2, order2, label2), target)):
            img = [0] * q1.order
            for x, y in zip(order1, order2):
                img[x] = y
            return Perm(img)
    return None


def dumps(q):
    """Serialize to the .loop text format."""
    lines = [str(q.order)]
    lines.extend(" ".join(str(v) for v in row) for row in q.rows)
    return "\n".join(lines) + "\n"


def loads(text, max_order=None):
    """Parse the .loop text format.

    Line 1 is the order; the next n lines hold n whitespace separated ids.
    ``#`` starts a comment.  Anything after the table is an error.
    """
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens:
        raise ParseError("empty input")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ParseError(f"bad order {tokens[0]!r}") from None
    if n <= 0:
        raise ParseError(f"bad order {n}")
    need = 1 + n * n
    if len(tokens) < need:
        raise ParseError(f"expected {n * n} entries, found {len(tokens) - 1}")
    if len(tokens) > need:
        raise ParseError("trailing garbage after table")
    try:
        vals = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise ParseError(f"bad entry: {exc}") from None
    rows = [tuple(vals[i * n : (i + 1) * n]) for i in range(n)]
    return LoopTable(rows, check=True, max_order=max_order)


def load_path(path, max_order=None):
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read(), max_order=max_order)


def dump_path(q, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(q))


def require_same_order(q1, q2):
    if q1.order != q2.order:
        raise OrderMismatch(f"{q1.order} != {q2.order}")
