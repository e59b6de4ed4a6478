"""Search engine: oracle agreement, pruning soundness, sharding,
canonical forms, minimal orders."""

import concurrent.futures
import importlib
import os
import time
from dataclasses import replace

import pytest

from loopkit.core import LoopTable, canonical_table, direct_product, isomorphic
from loopkit.errors import BudgetExceeded, InvalidSpec, UnknownVariety
from loopkit.identities import compile_identity, nontrivial_assignments, positions
from loopkit.search import (
    SearchSpec,
    _row1_prefixes,
    canonical_key,
    count_reduced,
    count_up_to_isomorphism,
    minimal_order,
    search,
    shard,
)
from loopkit.tables import chein_double, cyclic, dihedral
from loopkit.varieties import check_variety, propagation_programs
from search_oracle import (
    PartialTable,
    enumerate_reduced_naive,
    identity_status,
    propagate_identity,
    row1_prefixes,
    search_slices_serially,
)


def tables(found):
    return {tuple(map(tuple, q.rows)) for q in found}


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        SearchSpec(order=0)
    with pytest.raises(InvalidSpec):
        SearchSpec(order=4, mode="everything")
    with pytest.raises(InvalidSpec):
        SearchSpec(order=4, isomorphs="maybe")
    with pytest.raises(InvalidSpec):
        SearchSpec(order=4, isomorphs="all")
    with pytest.raises(InvalidSpec):
        SearchSpec(order=4, shards=0)
    with pytest.raises(InvalidSpec):
        SearchSpec(order=4, shards=3, shard_slice=(0, 2))
    with pytest.raises(UnknownVariety):
        SearchSpec(order=4, required=("nope",))
    # Search leaves skip the table checks, so the spec holds the order limit.
    assert SearchSpec(order=256).order == 256
    with pytest.raises(InvalidSpec):
        SearchSpec(257)


def test_reduced_counts_match_naive_oracle():
    for order, expected in ((1, 1), (2, 1), (3, 1), (4, 4), (5, 56)):
        naive = enumerate_reduced_naive(order)
        assert len(naive) == expected
        assert count_reduced(order) == expected
    # A leaf-only requirement or a forbidden name is decided on a table
    # built at each leaf; the unconstrained count builds none.
    for required, forbidden in ((("gloop",), ()), ((), ("associative",))):
        naive = enumerate_reduced_naive(5, required=required, forbidden=forbidden)
        assert count_reduced(5, required, forbidden) == len(naive) < 56


def test_full_table_sets_match_naive_oracle():
    for order in (4, 5):
        found = search(SearchSpec(order=order, mode="collect")).found
        # Leaf tables are built unchecked; each must pass the table checks.
        assert [LoopTable(q.rows) for q in found] == found
        assert tables(found) == tables(enumerate_reduced_naive(order))


def test_counts_up_to_isomorphism():
    assert [count_up_to_isomorphism(n) for n in range(1, 6)] == [1, 1, 1, 2, 6]


def test_up_to_iso_representatives_cover_order5():
    reps = search(SearchSpec(order=5, mode="collect", isomorphs="up_to_iso")).found
    assert len(reps) == 6
    for i, a in enumerate(reps):
        # Leaf tables are built unchecked; each must pass the table checks.
        assert LoopTable(a.rows) == a
        for b in reps[i + 1:]:
            assert isomorphic(a, b) is None
    for q in enumerate_reduced_naive(5):
        assert sum(1 for r in reps if isomorphic(q, r) is not None) == 1


@pytest.mark.parametrize("name", ["commutative", "lip", "flx", "lbol", "cc", "osborn", "moufang"])
def test_propagated_search_matches_filtered_naive(name):
    # Soundness of identity propagation: pruning must not change the
    # result set compared to enumerate-then-filter.
    order = 5
    engine = tables(search(SearchSpec(order=order, required=(name,), mode="collect")).found)
    naive = tables(enumerate_reduced_naive(order, required=(name,)))
    assert engine == naive


def test_consequence_propagated_searches_match_filtered_naive_at_order_6():
    # Each Osborn entry propagates with form 4, whichever form defines it,
    # and extra with the programs of its two parts.  Pruning must not
    # change the result set compared to enumerate-then-filter.
    naive = enumerate_reduced_naive(6)
    assert len(naive) == 9408
    for name in ("osborn", *(f"osborn{i}" for i in range(1, 9)), "moufang", "extra"):
        engine = tables(search(SearchSpec(6, (name,), mode="collect")).found)
        assert engine == tables(q for q in naive if check_variety(q, name)), name


def test_forbidden_constraints_subtract():
    allc = tables(search(SearchSpec(order=5, required=("commutative",), mode="collect")).found)
    nonassoc = tables(
        search(
            SearchSpec(order=5, required=("commutative",), forbidden=("associative",), mode="collect")
        ).found
    )
    assoc = tables(
        search(
            SearchSpec(order=5, required=("commutative", "associative"), mode="collect")
        ).found
    )
    assert nonassoc | assoc == allc
    assert not nonassoc & assoc


def test_search_is_deterministic():
    spec = SearchSpec(order=5, required=("osborn",), mode="collect")
    a = search(spec)
    b = search(spec)
    assert [q.rows for q in a.found] == [q.rows for q in b.found]
    assert a.visited == b.visited
    assert a.count == b.count


def test_summary_shape():
    res = search(SearchSpec(order=4, mode="count"))
    line = res.summary()
    assert line.startswith("order=4 visited=")
    assert "found=4" in line


def test_modes_are_consistent():
    collected = search(SearchSpec(order=5, required=("commutative",), mode="collect"))
    counted = search(SearchSpec(order=5, required=("commutative",), mode="count"))
    assert counted.count == len(collected.found)
    assert counted.found == []
    first = search(SearchSpec(order=5, required=("commutative",), mode="first"))
    assert len(first.found) == 1
    assert not first.complete
    assert first.found[0].rows in [q.rows for q in collected.found]
    # A collect keeps every table that a bare count counts.
    assert count_reduced(6) == len(search(SearchSpec(6, mode="collect")).found) == 9408


@pytest.mark.parametrize(
    "order, required, forbidden, mode, count, visited",
    [
        # Osborn propagates with form 4 alone, and Moufang with its defining
        # law alone; with all eight forms and nine Moufang programs these
        # took 2,595 and 93 nodes.
        (6, ("osborn",), ("cc", "moufang"), "count", 0, 3105),
        (5, ("moufang",), (), "collect", 6, 115),
        (6, ("buchsteiner",), (), "count", 120, 3355),
        (6, ("cc",), ("associative",), "count", 40, 2963),
        # Screens whose programs divide most.
        (6, ("aaip",), (), "count", 316, 10672),
        (6, ("wip",), (), "count", 240, 8701),
        (6, ("vd",), (), "count", 120, 3579),
        (6, ("gen_moufang",), (), "count", 120, 10424),
        (6, ("lip",), (), "count", 316, 4462),
        # Right-hand entries, whose laws are the mirrors of their left
        # statements: the same nodes as the laws typed by hand.
        (6, ("rip",), (), "count", 316, 5246),
        (6, ("rap",), (), "count", 146, 3064),
        (6, ("rc",), (), "count", 86, 1748),
        (6, ("rbol",), (), "count", 80, 1654),
        (6, ("rcc",), (), "count", 180, 5662),
        (6, ("right_a",), ("associative",), "count", 140, 9309),
        (6, ("nuclear_squares",), (), "count", 168, 3475),
    ],
)
def test_node_counts_are_pinned(order, required, forbidden, mode, count, visited):
    # Identity propagation and value pruning decide which nodes the search
    # visits; a faster evaluator must not change them.  These are the
    # counts of exact watch lists.  The older lists kept stale entries
    # whose state undo reset to the filled cell, so some value trials ran
    # later, with more cells filled, and pruned more (2552, 93, 3161, 2880).
    res = search(SearchSpec(order=order, required=required, forbidden=forbidden, mode=mode))
    assert (res.count, res.visited) == (count, visited)


@pytest.mark.parametrize(
    "required, forbidden, mode, count, visited, complete",
    [
        # The witness is in the second preseed: 471 + 44 nodes.
        (("cc",), ("associative",), "first", 1, 515, False),
        # With Moufang's defining law and Osborn form 4 as the only
        # propagators; with nine Moufang programs and all eight Osborn forms
        # these took 642 and 980 nodes.
        (("moufang",), ("associative",), "first", 0, 717, True),
        (("osborn",), ("cc", "moufang"), "count", 0, 1170, True),
        # 1,728 + 1,920 tables in 17,642 + 20,617 nodes.
        ((), (), "count", 3648, 38259, True),
    ],
)
def test_slices_of_two_preseeds_are_pinned(required, forbidden, mode, count, visited, complete):
    # Order-6 slice 0 of 4 starts from the row-1 preseeds (0,) and (5,);
    # slices 0 and 4 of 5 hold one each.  The node count runs on across
    # the preseeds.
    spec = SearchSpec(6, required, forbidden, mode=mode, shard_slice=(0, 4))
    res = search(spec)
    assert (res.count, res.visited, res.complete) == (count, visited, complete)
    parts = [search(replace(spec, shard_slice=(i, 5))) for i in (0, 4)]
    if complete:
        assert sum(p.count for p in parts) == count
        assert sum(p.visited for p in parts) == visited
    else:
        assert parts[0].count == 0
        assert parts[0].visited + parts[1].visited == visited
        assert tables(res.found) == tables(parts[1].found)


def test_budget_nodes_runs_on_across_preseeds():
    # The first preseed of the slice takes 17,642 nodes; the budget runs
    # out in the second.
    spec = SearchSpec(6, mode="count", shard_slice=(0, 4))
    with pytest.raises(BudgetExceeded) as exc:
        search(spec, budget_nodes=20000)
    assert exc.value.visited == 20001
    assert search(replace(spec, shard_slice=(0, 5))).visited == 17642


def test_row1_prefixes_never_conflict_with_the_border():
    # _search_slice places a preseed's values without a conflict check:
    # row 1 holds 1 in column 0 and column j holds j in row 0.
    for n in range(3, 9):
        for k in (2, 3, 4, 7, 16, 64, 100, 400):
            for prefix in _row1_prefixes(n, k):
                assert len(set(prefix)) == len(prefix), (n, k, prefix)
                assert all(0 <= v < n and v not in (1, j)
                           for j, v in enumerate(prefix, 1)), (n, k, prefix)


def test_row1_prefixes_match_oracle():
    # The order of the list decides which tables each slice searches.
    for n in range(1, 10):
        for k in (1, 2, 3, 4, 7, 16, 64, 84, 100, 210, 213, 400):
            assert _row1_prefixes(n, k) == row1_prefixes(n, k), (n, k)


def test_search_makes_no_futile_evaluator_calls(monkeypatch):
    # Exact watch lists, no loop-law tautologies and no value trials that
    # cannot prune: the order-6 proper-Osborn screen, propagated by Osborn
    # form 4, needs at most 70,000 evaluator calls (58,949 now; 93,095 with
    # stale watch entries, 82,639 with the tautologies kept and 86,590
    # with every value trial).
    search_module = importlib.import_module("loopkit.search")
    real = search_module.partial_evaluator
    calls = [0]

    def counting(prog, n):
        evaluate = real(prog, n)

        def counted(cells, pos, assign):
            calls[0] += 1
            return evaluate(cells, pos, assign)

        return counted

    monkeypatch.setattr(search_module, "partial_evaluator", counting)
    res = search(SearchSpec(6, ("osborn",), ("cc", "moufang"), mode="count"))
    assert res.count == 0
    assert 0 < calls[0] <= 70_000


@pytest.mark.parametrize(
    "spec",
    [SearchSpec(5, (name,), mode="count") for name in ("osborn", "aaip", "vd", "wip", "ip")]
    + [SearchSpec(6, ("osborn",), ("cc", "moufang"), mode="count", shard_slice=(1, 4))],
    ids=["osborn5", "aaip5", "vd5", "wip5", "ip5", "osborn6-slice"],
)
def test_position_index_follows_the_cells(monkeypatch, spec):
    # Every evaluator call, at set-up, in the wake and in value trials,
    # sees the index of the cells it is given.  The order-6 slice starts
    # from row-1 preseeds.
    search_module = importlib.import_module("loopkit.search")
    real = search_module.partial_evaluator
    calls = [0]

    def checking(prog, n):
        evaluate = real(prog, n)

        def checked(cells, pos, assign):
            calls[0] += 1
            assert pos == positions(cells, n)
            return evaluate(cells, pos, assign)

        return checked

    monkeypatch.setattr(search_module, "partial_evaluator", checking)
    search(spec)
    assert calls[0] > 0


def test_identity_status_keeps_tautologies_on_non_latin_grids():
    # The search drops every instance of x\x = e, which holds in any
    # Latin table; identity_status judges tables that need not be Latin.
    prog = compile_identity("(x\\x) = e")
    assert nontrivial_assignments(prog, 3) == ()
    pt = PartialTable(3)
    pt.cells[3:6] = [2, 1, 0]
    assert identity_status(pt, prog) == ("violated", None)
    assert identity_status(PartialTable(3), prog) == ("satisfied", None)


def test_shards_partition_the_space():
    spec = SearchSpec(order=5, mode="collect")
    whole = tables(search(spec).found)
    pieces = [search(s) for s in shard(spec, 3)]
    union = set()
    total = 0
    for piece in pieces:
        t = tables(piece.found)
        assert not union & t
        union |= t
        total += len(t)
    assert union == whole
    assert total == len(whole)


def test_shards_inside_one_call_match():
    # The pooled run equals the slices run one at a time and merged in
    # slice order, and its count does not depend on the shard count.
    for required in ((), ("commutative",)):
        for mode, isomorphs in (("collect", "reduced"), ("count", "reduced"),
                                ("first", "reduced"), ("count", "up_to_iso"),
                                ("collect", "up_to_iso")):
            spec = SearchSpec(order=5, required=required, mode=mode, isomorphs=isomorphs)
            whole = search(spec)
            for k in (2, 3, 4):
                pooled = search(replace(spec, shards=k))
                got = ([q.rows for q in pooled.found], pooled.count, pooled.visited,
                       pooled.complete)
                assert got == search_slices_serially(spec, k), (required, mode, isomorphs, k)
                assert (pooled.count, pooled.complete) == (whole.count, whole.complete)
                assert pooled.shard_slice == ()


def test_pooled_search_builds_the_instances_in_the_parent():
    # Forked workers inherit what the parent built before the pool started.
    spec = SearchSpec(order=5, required=("commutative",))
    progs = propagation_programs("commutative")
    for prog in progs:
        prog.compiled.pop(5, None)
        prog.nontrivial.pop(5, None)
    pooled = search(replace(spec, shards=2))
    for prog in progs:
        assert 5 in prog.compiled and 5 in prog.nontrivial
    whole = search(spec)
    assert pooled.count == whole.count > 0
    assert tables(pooled.found) == tables(whole.found)


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    # The pool is replaced by one that records its worker count and runs
    # the slices in this process, so no process is started.
    workers = []

    class InProcessPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # search() imports the pool class when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert search(SearchSpec(order=5, mode="count", shards=64)).count == 56
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert search(SearchSpec(order=4, mode="count", shards=64)).count == 4
    assert workers == [2, 1]


def test_shard_validation():
    spec = SearchSpec(order=5)
    with pytest.raises(InvalidSpec):
        shard(spec, 0)
    with pytest.raises(InvalidSpec):
        shard(shard(spec, 2)[0], 2)


def test_budget_nodes_raises():
    with pytest.raises(BudgetExceeded) as exc:
        search(SearchSpec(order=6, mode="count"), budget_nodes=500)
    assert exc.value.visited >= 500
    assert exc.value.elapsed >= 0.0


def test_budget_nodes_stops_at_the_exact_count():
    with pytest.raises(BudgetExceeded) as exc:
        search(SearchSpec(order=6, mode="count"), budget_nodes=1000)
    assert exc.value.visited == 1001


def test_budget_nodes_stops_each_small_slice_share():
    # Each of the 64 slices gets ceil(1000 / 64) = 16 nodes and stops at
    # its 17th, rather than running on to a multiple of 1,024.
    with pytest.raises(BudgetExceeded) as exc:
        search(SearchSpec(order=6, mode="count", shards=64), budget_nodes=1000)
    assert exc.value.visited <= 64 * 17


def test_budget_seconds_raises():
    with pytest.raises(BudgetExceeded):
        search(SearchSpec(order=7, mode="count"), budget_seconds=0.05)


def test_budget_seconds_bounds_the_whole_pooled_run(monkeypatch):
    # Eight slices wait for two workers.  Each slice alone runs far past
    # the budget, so a clock per slice would take four times the budget;
    # the clock of the call stops them all.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    budget = 0.5
    start = time.monotonic()
    with pytest.raises(BudgetExceeded) as exc:
        search(SearchSpec(order=7, mode="count", shards=8), budget_seconds=budget)
    wall = time.monotonic() - start
    assert budget < exc.value.elapsed <= wall < 3 * budget
    assert exc.value.visited > 0


def test_canonical_key_is_relabeling_invariant(z6, s3, cc6, m12):
    # Orders 12 and 16 are out of reach of a scan over all relabelings;
    # Z2^4 has the most walks of any loop here.
    z2sq = direct_product(cyclic(2), cyclic(2))
    for q in (z6, s3, cc6, m12, dihedral(8), chein_double(dihedral(4)), cyclic(16),
              direct_product(z2sq, z2sq)):
        n = q.order
        # Relabel by a fixed permutation keeping 0.
        sigma = [0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)]
        inv = [0] * n
        for i, s in enumerate(sigma):
            inv[s] = i
        relabeled = LoopTable([[sigma[q.mul(inv[i], inv[j])] for j in range(n)] for i in range(n)])
        assert canonical_key(q) == canonical_key(relabeled)
        assert canonical_table(q) == canonical_table(relabeled)


def _no_scan(*args):
    raise AssertionError("canonical forms must not scan relabelings")


def test_canonical_forms_scan_no_relabelings(monkeypatch):
    # The package rebinds the name loopkit.search to the search function.
    search_module = importlib.import_module("loopkit.search")
    monkeypatch.setattr(search_module, "permutations", _no_scan, raising=False)
    assert len({canonical_key(q) for q in enumerate_reduced_naive(5)}) == 6
    assert count_up_to_isomorphism(5) == 6


def test_canonical_key_separates_classes():
    reps = search(SearchSpec(order=5, mode="collect", isomorphs="up_to_iso")).found
    keys = {canonical_key(q) for q in reps}
    assert len(keys) == len(reps)
    for q in enumerate_reduced_naive(5):
        assert canonical_key(q) in keys
        assert isomorphic(canonical_table(q), q) is not None


def test_minimal_order_smallest_nonassociative_commutative():
    # Exhaustive order-5 enumeration finds no commutative nonassociative
    # loop; order 6 has one.
    assert not enumerate_reduced_naive(5, required=("commutative",), forbidden=("associative",))
    order, witness = minimal_order(("commutative",), ("associative",), max_order=6)
    assert order == 6
    assert check_variety(witness, "commutative")
    assert not check_variety(witness, "associative")


def test_minimal_order_conjugacy_closed():
    order, witness = minimal_order(("cc",), ("associative",), max_order=8)
    assert order == 6
    assert check_variety(witness, "cc")
    assert not check_variety(witness, "associative")


def test_minimal_order_none_when_exhausted():
    assert minimal_order(("moufang",), ("associative",), max_order=7) is None


def test_propagate_identity_contradiction():
    pt = PartialTable(4)
    pt.set(1, 2, 3)
    pt.set(2, 1, 0)
    assert propagate_identity(pt, "commutative") == "contradiction"
    pt2 = PartialTable(4)
    pt2.set(1, 2, 3)
    pt2.set(2, 1, 3)
    assert propagate_identity(pt2, "commutative") == "consistent"
    with pytest.raises(UnknownVariety):
        propagate_identity(pt2, "nope")
    # Non-equational names cannot prune and default to consistent.
    assert propagate_identity(pt2, "gloop") == "consistent"


def test_partial_table_completions():
    pt = PartialTable(3)
    completions = list(pt.completions())
    assert len(completions) == 1
    pt4 = PartialTable(4)
    assert len(list(pt4.completions())) == 4
