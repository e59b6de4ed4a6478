"""References that the search engine in ``loopkit.search`` is tested
against: naive enumeration of reduced tables, identity status on partial
tables by brute force, and sharded runs merged one slice at a time."""

from dataclasses import replace
from itertools import product

from loopkit.core import LoopTable
from loopkit.errors import InvalidSpec
from loopkit.identities import VIOLATED, partial_evaluator, positions
from loopkit.search import search, shard
from loopkit.varieties import check_variety, get_entry, propagation_programs


def enumerate_reduced_naive(order, required=(), forbidden=()):
    """Row-by-row enumeration sharing no code with the engine; do not
    use beyond order 6."""
    n = order
    for name in tuple(required) + tuple(forbidden):
        get_entry(name)
    if n == 1:
        q = LoopTable([[0]])
        keep = all(check_variety(q, r) for r in required) and not any(
            check_variety(q, f) for f in forbidden
        )
        return [q] if keep else []
    rows = [list(range(n))]
    col_used = [1 << j for j in range(n)]
    out = []

    def fill_row(r, row, used, j):
        if j == n:
            rows.append(list(row))
            for c in range(n):
                col_used[c] |= 1 << row[c]
            next_row(r + 1)
            rows.pop()
            for c in range(n):
                col_used[c] &= ~(1 << row[c])
            return
        for v in range(n):
            bit = 1 << v
            if used & bit or col_used[j] & bit:
                continue
            row[j] = v
            fill_row(r, row, used | bit, j + 1)
        row[j] = -1

    def next_row(r):
        if r == n:
            q = LoopTable([list(x) for x in rows])
            if all(check_variety(q, name) for name in required) and not any(
                check_variety(q, name) for name in forbidden
            ):
                out.append(q)
            return
        row = [-1] * n
        row[0] = r
        fill_row(r, row, 1 << r, 1)

    next_row(1)
    return out


def row1_prefixes(n, k):
    """What ``_row1_prefixes(n, k)`` returns, from every value tuple of
    each length in lexicographic order, kept when its values are distinct
    and none is 1 or its own column.  The first length whose count
    reaches k is taken, or n - 1; orders below 3 are not split."""
    if n < 3:
        return [()]
    for length in range(1, n):
        prefixes = [p for p in product(range(n), repeat=length)
                    if len(set(p)) == length and all(v not in (1, j) for j, v in enumerate(p, 1))]
        if len(prefixes) >= k or length == n - 1:
            return prefixes


def search_slices_serially(spec, k):
    """What ``search(replace(spec, shards=k))`` returns, from the slices of
    ``shard(spec, k)`` run one after another in this process and merged in
    slice order, as (rows of found, count, visited, complete)."""
    up_to_iso = spec.isomorphs == "up_to_iso"
    rows = []
    count = visited = 0
    for piece in shard(spec, k):
        if up_to_iso and spec.mode == "count":
            # Classes found in two slices are merged on their canonical rows.
            piece = replace(piece, mode="collect")
        res = search(piece)
        visited += res.visited
        count += res.count
        rows.extend(q.rows for q in res.found)
    if up_to_iso:
        rows = list(dict.fromkeys(rows))
        count = len(rows)
    if spec.mode == "count":
        rows = []
    if spec.mode == "first" and count:
        return rows[:1], 1, visited, False
    return rows, count, visited, True


class PartialTable:
    """A partially filled table: flat row-major cells with -1 holes.

    Row 0 and column 0 are pre-filled from the identity.
    """

    __slots__ = ("order", "cells")

    def __init__(self, order, cells=None):
        n = order
        if cells is None:
            cells = [-1] * (n * n)
            for j in range(n):
                cells[j] = j
                cells[j * n] = j
        if len(cells) != n * n:
            raise InvalidSpec("cell buffer does not match order")
        self.order = n
        self.cells = list(cells)

    def set(self, row, col, value):
        self.cells[row * self.order + col] = value

    def completions(self):
        """Brute-force generator of all Latin completions (small orders)."""
        n = self.order
        cells = self.cells
        full = (1 << n) - 1
        rowf = [full] * n
        colf = [full] * n
        for i in range(n):
            for j in range(n):
                v = cells[i * n + j]
                if v >= 0:
                    rowf[i] &= ~(1 << v)
                    colf[j] &= ~(1 << v)
        holes = [i for i, v in enumerate(cells) if v < 0]
        out = list(cells)

        def rec(k):
            if k == len(holes):
                yield [out[i * n : (i + 1) * n] for i in range(n)]
                return
            idx = holes[k]
            r, c = divmod(idx, n)
            mask = rowf[r] & colf[c]
            while mask:
                bit = mask & -mask
                mask ^= bit
                v = bit.bit_length() - 1
                out[idx] = v
                rowf[r] ^= bit
                colf[c] ^= bit
                yield from rec(k + 1)
                rowf[r] |= bit
                colf[c] |= bit
            out[idx] = -1

        yield from rec(0)


def identity_status(pt, prog):
    """Aggregate status of an identity over a partial table.

    Returns ("violated", cell_or_none), ("undetermined", blocking_cell)
    or ("satisfied", None).  "violated" means no completion can satisfy
    the identity; "satisfied" means every completion does.
    """
    n = pt.order
    evaluate = partial_evaluator(prog, n)
    pos = positions(pt.cells, n)
    first_undet = None
    # Every assignment: the table need not be Latin, so the ones the
    # search drops as loop-law tautologies may still be violated here.
    for assign in product(range(n), repeat=prog.nvars):
        cell = evaluate(pt.cells, pos, assign)
        if cell == VIOLATED:
            return "violated", None
        if cell >= 0 and first_undet is None:
            first_undet = cell % (n * n)
    if first_undet is not None:
        return "undetermined", first_undet
    return "satisfied", None


def propagate_identity(partial, name):
    """Judge a partial table against one catalog identity.

    Returns "contradiction" when some fully determined ground instance
    fails (no completion can satisfy the identity), else "consistent".
    Only fully determined instances are judged, so a completable table
    is never rejected.  Entries with no equational content are always
    consistent.
    """
    for prog in propagation_programs(name):
        status, _cell = identity_status(partial, prog)
        if status == "violated":
            return "contradiction"
    return "consistent"
