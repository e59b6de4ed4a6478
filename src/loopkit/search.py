"""Backtracking search for loop tables subject to variety constraints.

The engine enumerates reduced tables (row 0 and column 0 are forced by
the identity element, so every table in this package's representation is
reduced).  Required varieties with equational content drive incremental
pruning through a watch scheme over ground identity instances; forbidden
varieties and any non-equational requirements are leaf filters.  Every
leaf is re-verified with the authoritative full checkers, so pruning is
an optimization and never decides membership by itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product

# canonical_key is imported for callers that take it from this module.
from .core import LoopTable, canonical_key, canonical_table
from .errors import BudgetExceeded, InvalidSpec
from .identities import SAT, VIOLATED, partial_evaluator
from .varieties import check_variety, get_entry, propagation_programs

_MODES = ("collect", "count", "first")
_ISOMORPHS = ("reduced", "up_to_iso")
_CELL_ORDERS = ("mrv", "row_major")


@dataclass(frozen=True)
class SearchSpec:
    """What to search for: order, required and forbidden variety names.

    ``mode``: "collect" keeps every table found, "count" keeps none,
    "first" stops at the first.  ``isomorphs``: "reduced" emits one table
    per reduced form, "up_to_iso" emits the canonical table of each
    isomorphism class once.
    ``shards`` > 1 splits the run into that many independent slices and
    merges them; ``shard_slice=(i, k)`` restricts to slice i of k.
    """

    order: int
    required: tuple = ()
    forbidden: tuple = ()
    mode: str = "collect"
    isomorphs: str = "reduced"
    cell_order: str = "mrv"
    shards: int = 1
    shard_slice: tuple = ()

    def __post_init__(self):
        if self.order < 1:
            raise InvalidSpec("order must be at least 1")
        if self.mode not in _MODES:
            raise InvalidSpec(f"unknown mode {self.mode!r}")
        if self.isomorphs not in _ISOMORPHS:
            raise InvalidSpec(f"unknown isomorph handling {self.isomorphs!r}")
        if self.cell_order not in _CELL_ORDERS:
            raise InvalidSpec(f"unknown cell order {self.cell_order!r}")
        if self.shards < 1:
            raise InvalidSpec("shards must be at least 1")
        if self.shard_slice:
            i, k = self.shard_slice
            if k < 1 or not 0 <= i < k:
                raise InvalidSpec(f"bad shard slice {self.shard_slice!r}")
        overlap = set(self.required) & set(self.forbidden)
        if overlap:
            raise InvalidSpec(f"required and forbidden overlap: {sorted(overlap)}")
        for name in tuple(self.required) + tuple(self.forbidden):
            get_entry(name)


def shard(spec, k):
    """Split a spec into k disjoint slices whose union covers it exactly."""
    if k < 1:
        raise InvalidSpec("shard count must be at least 1")
    if spec.shard_slice:
        raise InvalidSpec("spec is already a shard slice")
    from dataclasses import replace

    return [replace(spec, shards=1, shard_slice=(i, k)) for i in range(k)]


@dataclass
class SearchResult:
    order: int
    found: list
    count: int
    visited: int
    elapsed: float
    complete: bool = True
    shard_slice: tuple = ()

    def summary(self):
        return (
            f"order={self.order} visited={self.visited} "
            f"found={self.count} elapsed={self.elapsed:.3f}"
        )


class PartialTable:
    """A partially filled table: flat row-major cells with -1 holes.

    Row 0 and column 0 are pre-filled from the identity.  This is the
    public face of the engine's internal state, mainly for testing the
    pruning logic against brute force.
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
    first_undet = None
    for assign in product(range(n), repeat=prog.nvars):
        cell = evaluate(pt.cells, assign)
        if cell == VIOLATED:
            return "violated", None
        if cell >= 0 and first_undet is None:
            first_undet = cell
    if first_undet is not None:
        return "undetermined", first_undet
    return "satisfied", None


# ---------------------------------------------------------------------------
# the engine


def _split_constraints(names):
    """Partition variety names into (propagation programs, leaf-only names)."""
    progs = []
    leaf_only = []
    for name in names:
        try:
            progs.extend(propagation_programs(name))
        except ValueError:
            leaf_only.append(name)
    return progs, leaf_only


_STATE_DONE = -2


class _Stop(Exception):
    pass


def search(spec, budget_nodes=None, budget_seconds=None, prune_values=True):
    """Run the search described by ``spec``.

    ``prune_values`` additionally tests candidate values of a blocking
    cell against the instance watching it, excluding values that
    immediately violate it; it is an optimization with no effect on the
    result set.  Raises BudgetExceeded when a budget runs out.
    """
    n = spec.order
    required = tuple(spec.required)
    forbidden = tuple(spec.forbidden)
    progs, _leaf_required = _split_constraints(required)
    up_to_iso = spec.isomorphs == "up_to_iso"
    keep = spec.mode != "count"
    found_limit = 1 if spec.mode == "first" else None

    start = time.monotonic()
    found = []
    seen_canonical = set()
    counts = [0]
    visited = 0

    preseeds = [()]
    slices = [spec.shard_slice] if spec.shard_slice else None
    if slices is None and spec.shards > 1:
        slices = [(i, spec.shards) for i in range(spec.shards)]
    if slices:
        preseeds = []
        for index, count in slices:
            if count > 1:
                prefixes, _length = _row1_prefixes(n, count)
                preseeds.extend(
                    [(n + 1 + j, v) for j, v in enumerate(p)]
                    for i, p in enumerate(prefixes)
                    if i % count == index
                )
            else:
                preseeds.append(())

    for preseed in preseeds:
        visited = _search_one(
            n,
            preseed,
            progs,
            required,
            forbidden,
            up_to_iso,
            keep,
            found,
            counts,
            seen_canonical,
            visited,
            start,
            budget_nodes,
            budget_seconds,
            found_limit,
            prune_values,
            spec.cell_order == "mrv",
        )
        if found_limit is not None and counts[0] >= found_limit:
            break

    elapsed = time.monotonic() - start
    complete = found_limit is None or counts[0] < found_limit
    return SearchResult(n, found, counts[0], visited, elapsed, complete, spec.shard_slice)


def _search_one(
    n,
    preseed,
    progs,
    required,
    forbidden,
    up_to_iso,
    keep,
    found,
    counts,
    seen_canonical,
    visited,
    start,
    budget_nodes,
    budget_seconds,
    found_limit,
    prune_values,
    mrv=True,
):
    n2 = n * n
    cells = [-1] * n2
    for j in range(n):
        cells[j] = j
        cells[j * n] = j
    full = (1 << n) - 1
    row_free = [0] + [full & ~(1 << i) for i in range(1, n)]
    col_free = [0] + [full & ~(1 << j) for j in range(1, n)]
    excl = [0] * n2
    interior = [i * n + j for i in range(1, n) for j in range(1, n)]

    for idx, v in preseed:
        r, c = divmod(idx, n)
        bit = 1 << v
        if cells[idx] >= 0 or not (row_free[r] & col_free[c] & bit):
            return visited
        cells[idx] = v
        row_free[r] ^= bit
        col_free[c] ^= bit

    # Every ground instance of the programs, as (evaluator, assignment).
    instances = []
    for prog in progs:
        evaluate = partial_evaluator(prog, n)
        instances.extend((evaluate, assign) for assign in product(range(n), repeat=prog.nvars))
    inst_state = [0] * len(instances)
    watch = [[] for _ in range(n2)]
    for i, (evaluate, assign) in enumerate(instances):
        cell = evaluate(cells, assign)
        if cell == VIOLATED:
            return visited
        if cell == SAT:
            inst_state[i] = _STATE_DONE
        else:
            inst_state[i] = cell
            watch[cell].append(i)

    counter = [visited]

    def leaf():
        rows = [cells[i * n : (i + 1) * n] for i in range(n)]
        q = LoopTable(rows)
        for name in required:
            if not check_variety(q, name):
                return
        for name in forbidden:
            if check_variety(q, name):
                return
        if up_to_iso:
            q = canonical_table(q)
            if q.rows in seen_canonical:
                return
            seen_canonical.add(q.rows)
        counts[0] += 1
        if keep:
            found.append(q)
        if found_limit is not None and counts[0] >= found_limit:
            raise _Stop

    def dfs():
        best = -1
        best_mask = 0
        best_count = n + 1
        for idx in interior:
            if cells[idx] >= 0:
                continue
            r, c = divmod(idx, n)
            mask = row_free[r] & col_free[c] & ~excl[idx]
            cnt = mask.bit_count()
            if cnt == 0:
                return
            if mrv:
                if cnt < best_count:
                    best = idx
                    best_mask = mask
                    best_count = cnt
                    if cnt == 1:
                        break
            elif best < 0:
                best = idx
                best_mask = mask
        if best < 0:
            leaf()
            return
        idx = best
        r, c = divmod(idx, n)
        mask = best_mask
        while mask:
            bit = mask & -mask
            mask ^= bit
            v = bit.bit_length() - 1
            counter[0] += 1
            if counter[0] & 1023 == 0:
                if budget_nodes is not None and counter[0] > budget_nodes:
                    raise BudgetExceeded(counter[0], time.monotonic() - start)
                if budget_seconds is not None and time.monotonic() - start > budget_seconds:
                    raise BudgetExceeded(counter[0], time.monotonic() - start)
            cells[idx] = v
            row_free[r] ^= bit
            col_free[c] ^= bit
            woken = watch[idx]
            watch[idx] = []
            excl_trail = []
            ok = True
            for i in woken:
                if inst_state[i] != idx:
                    continue
                evaluate, assign = instances[i]
                cell = evaluate(cells, assign)
                if cell == VIOLATED:
                    ok = False
                    break
                if cell == SAT:
                    inst_state[i] = _STATE_DONE
                    continue
                inst_state[i] = cell
                watch[cell].append(i)
                if prune_values:
                    br, bc = divmod(cell, n)
                    cand = row_free[br] & col_free[bc] & ~excl[cell]
                    removed = 0
                    m2 = cand
                    while m2:
                        b2 = m2 & -m2
                        m2 ^= b2
                        cells[cell] = b2.bit_length() - 1
                        if evaluate(cells, assign) == VIOLATED:
                            removed |= b2
                        cells[cell] = -1
                    if removed:
                        excl_trail.append((cell, excl[cell]))
                        excl[cell] |= removed
                        if cand & ~removed == 0:
                            ok = False
                            break
            if ok:
                dfs()
            for pos, old in reversed(excl_trail):
                excl[pos] = old
            for i in woken:
                inst_state[i] = idx
            watch[idx] = woken
            cells[idx] = -1
            row_free[r] |= bit
            col_free[c] |= bit

    try:
        dfs()
    except _Stop:
        pass
    return counter[0]


def _row1_prefixes(n, k):
    """Row-1 prefixes of the minimal length whose count reaches k.

    Returns (prefixes, length); prefixes are tuples of values for cells
    (1,1)..(1,length) in lexicographic order.  With fewer total prefixes
    than shards, high-index shards are simply empty.
    """
    if n < 3:
        return [()], 0
    for length in range(1, n):
        prefixes = []

        def rec(j, used, acc):
            if j > length:
                prefixes.append(tuple(acc))
                return
            for v in range(n):
                if v == 1 or v == j or used & (1 << v):
                    continue
                acc.append(v)
                rec(j + 1, used | (1 << v), acc)
                acc.pop()

        rec(1, 0, [])
        if len(prefixes) >= k or length == n - 1:
            return prefixes, length
    return [()], 0


# ---------------------------------------------------------------------------
# counting


def count_reduced(order, required=(), forbidden=(), **kwargs):
    spec = SearchSpec(order, tuple(required), tuple(forbidden), mode="count")
    return search(spec, **kwargs).count


def count_up_to_isomorphism(order, required=(), forbidden=(), **kwargs):
    spec = SearchSpec(order, tuple(required), tuple(forbidden), isomorphs="up_to_iso")
    return search(spec, **kwargs).count


def minimal_order(required, forbidden=(), max_order=12, **kwargs):
    """Ascending search for the smallest order admitting a loop in every
    required variety and no forbidden one.

    Returns (order, witness LoopTable) or None if there is none up to
    max_order.
    """
    for n in range(1, max_order + 1):
        spec = SearchSpec(n, tuple(required), tuple(forbidden), mode="first")
        res = search(spec, **kwargs)
        if res.count:
            return n, res.found[0]
    return None


def propagate_identity(partial, name):
    """Judge a partial table against one catalog identity.

    Returns "contradiction" when some fully determined ground instance
    fails (no completion can satisfy the identity), else "consistent".
    Only fully determined instances are judged, so a completable table
    is never rejected.  Entries with no equational content are always
    consistent.
    """
    get_entry(name)
    try:
        progs = propagation_programs(name)
    except ValueError:
        return "consistent"
    for prog in progs:
        status, _cell = identity_status(partial, prog)
        if status == "violated":
            return "contradiction"
    return "consistent"
