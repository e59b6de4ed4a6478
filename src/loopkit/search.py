"""Backtracking search for loop tables subject to variety constraints.

The engine enumerates reduced tables (row 0 and column 0 are forced by
the identity element, so every table in this package's representation is
reduced).  Required varieties with equational content drive incremental
pruning through a watch scheme over ground identity instances; forbidden
varieties and any non-equational requirements are leaf filters.  Every
leaf is re-verified with the authoritative full checkers, so pruning is
an optimization and never decides membership by itself.

Every partial table the search visits is Latin, with identity row and
column, and it only does work that can prune on such tables.  Each open
instance is on the watch list of the one hole that blocks it, and a
backtrack undoes the moves its node made, so the lists stay exact.
Instances that the loop laws alone make true are dropped at set-up
(``identities.nontrivial_assignments``): on a Latin table they are never
violated.  When the partial evaluator flags a blocked instance, the
instance needs another hole whatever value the blocking cell takes, so no
value there is tried against it.  Neither changes which nodes are visited.

The evaluators read divisions from a position index of the cells
(``identities.positions``): for each row and column, where each value
first occurs.  It is built once per row-1 preseed and kept exact by
setting and clearing two entries wherever a node fills or undoes a cell
and wherever a value trial sets and resets one.  The ground instances
are built once per slice.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from itertools import repeat
from math import inf

# canonical_key is imported for callers that take it from this module,
# such as perfbench.
from .core import LoopTable, canonical_key, canonical_table
from .errors import BudgetExceeded, InvalidSpec
from .identities import SAT, VIOLATED, nontrivial_assignments, partial_evaluator, positions
from .varieties import Context, get_entry, propagation_programs

_MODES = ("collect", "count", "first")
_ISOMORPHS = ("reduced", "up_to_iso")


@dataclass(frozen=True)
class SearchSpec:
    """What to search for: order, required and forbidden variety names.

    ``mode``: "collect" keeps every table found, "count" keeps none,
    "first" stops at the first.  ``isomorphs``: "reduced" emits one table
    per reduced form, "up_to_iso" emits the canonical table of each
    isomorphism class once.
    ``shards`` > 1 runs the slices of ``shard(spec, shards)`` in worker
    processes and merges them in slice order; ``shard_slice=(i, k)``
    restricts the run to slice i of k.  The two exclude each other.
    """

    order: int
    required: tuple = ()
    forbidden: tuple = ()
    mode: str = "collect"
    isomorphs: str = "reduced"
    shards: int = 1
    shard_slice: tuple = ()

    def __post_init__(self):
        if self.order < 1:
            raise InvalidSpec("order must be at least 1")
        if self.mode not in _MODES:
            raise InvalidSpec(f"unknown mode {self.mode!r}")
        if self.isomorphs not in _ISOMORPHS:
            raise InvalidSpec(f"unknown isomorph handling {self.isomorphs!r}")
        if self.shards < 1:
            raise InvalidSpec("shards must be at least 1")
        if self.shard_slice:
            i, k = self.shard_slice
            if k < 1 or not 0 <= i < k:
                raise InvalidSpec(f"bad shard slice {self.shard_slice!r}")
            if self.shards > 1:
                raise InvalidSpec("a shard slice cannot be split into shards again")
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


# ---------------------------------------------------------------------------
# the engine


class _Stop(Exception):
    pass


def search(spec, budget_nodes=None, budget_seconds=None):
    """Run the search described by ``spec``.

    With ``spec.shards`` = k > 1 the slices of ``shard(spec, k)`` run in a
    pool of at most one worker process per CPU and merge in slice order:
    visited counts add up, "up_to_iso" keeps each class at its first
    appearance, and "first" keeps the first witness and is complete only
    when no slice found one.  A pooled "first" runs every slice to its own
    first witness, so its visited count is deterministic but grows with k.
    Each slice gets ceil(budget_nodes / k) nodes.  ``budget_seconds`` and
    ``elapsed`` are measured from this call, whether or not the work waits
    for a worker.  Raises BudgetExceeded, with the nodes of every slice,
    when a budget runs out.
    """
    start = time.monotonic()
    if spec.shards > 1:
        return _search_pooled(spec, budget_nodes, budget_seconds, start)
    return _search_slice(spec, budget_nodes, budget_seconds, start)


def _search_pooled(spec, budget_nodes, budget_seconds, start):
    # Imported here: at module level the pool's modules about double the
    # time of ``import loopkit``.
    from concurrent.futures import ProcessPoolExecutor

    k = spec.shards
    share = None if budget_nodes is None else -(-budget_nodes // k)
    with ProcessPoolExecutor(max_workers=min(k, os.cpu_count() or 1)) as pool:
        counts, slice_rows, visits = zip(*pool.map(
            _slice_worker, shard(spec, k), repeat(share), repeat(budget_seconds), repeat(start)))
    visited = sum(visits)
    if None in counts:
        raise BudgetExceeded(visited, time.monotonic() - start)
    rows = [r for part in slice_rows for r in part]
    if spec.isomorphs == "up_to_iso":
        # Slices return canonical tables, so a class found twice has equal rows.
        rows = list(dict.fromkeys(rows))
        count = len(rows)
    else:
        count = sum(counts)
    complete = spec.mode != "first" or count == 0
    if not complete:
        rows, count = rows[:1], 1
    found = [LoopTable(r, check=False) for r in rows] if spec.mode != "count" else []
    return SearchResult(spec.order, found, count, visited, time.monotonic() - start, complete)


def _slice_worker(spec, budget_nodes, budget_seconds, start):
    """One slice in a worker process, as (count, rows, visited) for
    pickling; count is None when a budget ran out.

    An "up_to_iso" count runs as a collect, so the parent can merge
    classes found in more than one slice.  ``start`` is the parent's
    monotonic clock reading, the same system-wide clock in every process.
    """
    if spec.isomorphs == "up_to_iso" and spec.mode == "count":
        spec = replace(spec, mode="collect")
    try:
        res = _search_slice(spec, budget_nodes, budget_seconds, start)
    except BudgetExceeded as exc:
        return None, [], exc.visited
    return res.count, [q.rows for q in res.found], res.visited


def _search_slice(spec, budget_nodes, budget_seconds, start):
    """The search of ``spec`` in this process, with ``spec.shards`` == 1.

    Slice i of k > 1 takes every k-th prefix of ``_row1_prefixes(n, k)``
    from the i-th on as its row-1 preseeds.  The instances are built once.
    Each preseed then starts from a fresh table, position index and watch
    lists, and the node count runs on across the preseeds.
    """
    n = spec.order
    n2 = n * n
    required = tuple(spec.required)
    forbidden = tuple(spec.forbidden)
    up_to_iso = spec.isomorphs == "up_to_iso"
    keep = spec.mode != "count"
    first = spec.mode == "first"

    preseeds = [()]
    if spec.shard_slice and spec.shard_slice[1] > 1:
        index, k = spec.shard_slice
        preseeds = _row1_prefixes(n, k)[index::k]

    # The ground instances of the required programs that are not loop-law
    # tautologies, as (evaluator, assignment).  An entry with a predicate
    # has no programs and is only checked at the leaves.
    progs = [prog for name in required for prog in propagation_programs(name)]
    instances = []
    for prog in progs:
        evaluate = partial_evaluator(prog, n)
        instances.extend((evaluate, assign) for assign in nontrivial_assignments(prog, n))

    found = []
    seen_canonical = set()
    count = 0
    # The seconds budget is read every 1,024 nodes, the node budget at its
    # exact count.
    nodes = 0
    node_limit = inf if budget_nodes is None else budget_nodes + 1
    full = (1 << n) - 1
    interior = [i * n + j for i in range(1, n) for j in range(1, n)]

    # An unconstrained count of reduced tables reads nothing off its
    # leaves, so it counts them without building a table.
    bare = not (keep or required or forbidden or up_to_iso)

    def leaf():
        nonlocal count
        if bare:
            count += 1
            return
        # The search fills only Latin tables with an identity border.
        q = LoopTable([cells[i * n : (i + 1) * n] for i in range(n)], check=False)
        if required or forbidden:
            ctx = Context(q)
            if not all(map(ctx.flag, required)) or any(map(ctx.flag, forbidden)):
                return
        if up_to_iso:
            q = canonical_table(q)
            if q.rows in seen_canonical:
                return
            seen_canonical.add(q.rows)
        count += 1
        if keep:
            found.append(q)
        if first:
            raise _Stop

    def dfs():
        nonlocal nodes, check_at
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
            if cnt < best_count:
                best = idx
                best_mask = mask
                best_count = cnt
                if cnt == 1:
                    break
        if best < 0:
            leaf()
            return
        idx = best
        r, c = divmod(idx, n)
        row_at = r * n
        col_at = n2 + c * n
        mask = best_mask
        while mask:
            bit = mask & -mask
            mask ^= bit
            v = bit.bit_length() - 1
            nodes += 1
            if nodes >= check_at:
                if nodes >= node_limit:
                    raise BudgetExceeded(nodes, time.monotonic() - start)
                if budget_seconds is not None and time.monotonic() - start > budget_seconds:
                    raise BudgetExceeded(nodes, time.monotonic() - start)
                check_at = min((nodes | 1023) + 1, node_limit)
            cells[idx] = v
            pos[row_at + v] = c
            pos[col_at + v] = r
            row_free[r] ^= bit
            col_free[c] ^= bit
            woken = watch[idx]
            watch[idx] = []
            # The cells whose watch lists gained an instance at this node.
            moved = []
            excl_trail = []
            ok = True
            for i in woken:
                evaluate, assign = instances[i]
                cell = evaluate(cells, pos, assign)
                if cell < 0:
                    if cell == VIOLATED:
                        ok = False
                        break
                    continue
                # A flagged instance cannot be decided by one value at the cell.
                flagged = cell >= n2
                if flagged:
                    cell -= n2
                watch[cell].append(i)
                moved.append(cell)
                if not flagged:
                    br, bc = divmod(cell, n)
                    cand = row_free[br] & col_free[bc] & ~excl[cell]
                    brow = br * n
                    bcol = n2 + bc * n
                    removed = 0
                    m2 = cand
                    while m2:
                        b2 = m2 & -m2
                        m2 ^= b2
                        v2 = b2.bit_length() - 1
                        cells[cell] = v2
                        pos[brow + v2] = bc
                        pos[bcol + v2] = br
                        if evaluate(cells, pos, assign) == VIOLATED:
                            removed |= b2
                        pos[brow + v2] = -1
                        pos[bcol + v2] = -1
                        cells[cell] = -1
                    if removed:
                        excl_trail.append((cell, excl[cell]))
                        excl[cell] |= removed
                        if cand & ~removed == 0:
                            ok = False
                            break
            if ok:
                dfs()
            for cell, old in reversed(excl_trail):
                excl[cell] = old
            for cell in moved:
                watch[cell].pop()
            watch[idx] = woken
            cells[idx] = -1
            pos[row_at + v] = -1
            pos[col_at + v] = -1
            row_free[r] |= bit
            col_free[c] |= bit

    try:
        for preseed in preseeds:
            cells = [-1] * n2
            for j in range(n):
                cells[j] = j
                cells[j * n] = j
            row_free = [0] + [full & ~(1 << i) for i in range(1, n)]
            col_free = [0] + [full & ~(1 << j) for j in range(1, n)]
            excl = [0] * n2
            for j, v in enumerate(preseed, 1):
                cells[n + j] = v
                row_free[1] ^= 1 << v
                col_free[j] ^= 1 << v
            # The position index of cells, which the evaluators read
            # divisions from; every change to cells makes the same change
            # here.  watch[cell] lists the open instances blocked on that
            # cell, each instance in exactly one list.  A preseed whose
            # set-up violates an instance holds no table.
            pos = positions(cells, n)
            watch = [[] for _ in range(n2)]
            for i, (evaluate, assign) in enumerate(instances):
                cell = evaluate(cells, pos, assign)
                if cell == VIOLATED:
                    break
                if cell != SAT:
                    watch[cell % n2].append(i)
            else:
                check_at = min((nodes | 1023) + 1, node_limit)
                dfs()
    except _Stop:
        pass

    elapsed = time.monotonic() - start
    return SearchResult(n, found, count, nodes, elapsed, not first or count == 0, spec.shard_slice)


def _row1_prefixes(n, k):
    """Row-1 prefixes of the minimal length whose count reaches k.

    The prefixes are tuples of values for cells (1,1)..(1,length) in
    lexicographic order, extended a column at a time.  With fewer prefixes
    than shards, high-index shards are empty.  A prefix holds distinct
    values, none 1 or its own column, so it never meets the border.
    """
    prefixes = [()]
    if n < 3:
        return prefixes
    for j in range(1, n):
        prefixes = [p + (v,) for p in prefixes for v in range(n)
                    if v != 1 and v != j and v not in p]
        if len(prefixes) >= k or j == n - 1:
            return prefixes


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
