"""Search engine: oracle agreement, pruning soundness, sharding,
canonical forms, minimal orders."""

import importlib

import pytest

from loopkit.core import LoopTable, direct_product, isomorphic
from loopkit.errors import BudgetExceeded, InvalidSpec, UnknownVariety
from loopkit.search import (
    PartialTable,
    SearchSpec,
    canonical_key,
    canonical_table,
    count_reduced,
    count_up_to_isomorphism,
    minimal_order,
    propagate_identity,
    search,
    shard,
)
from loopkit.tables import chein_double, cyclic, dihedral
from loopkit.varieties import check_variety
from search_oracle import enumerate_reduced_naive


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
    with pytest.raises(UnknownVariety):
        SearchSpec(order=4, required=("nope",))


def test_reduced_counts_match_naive_oracle():
    for order, expected in ((1, 1), (2, 1), (3, 1), (4, 4), (5, 56)):
        naive = enumerate_reduced_naive(order)
        assert len(naive) == expected
        assert count_reduced(order) == expected


def test_full_table_sets_match_naive_oracle():
    for order in (4, 5):
        engine = tables(search(SearchSpec(order=order, mode="collect")).found)
        naive = tables(enumerate_reduced_naive(order))
        assert engine == naive


def test_counts_up_to_isomorphism():
    assert [count_up_to_isomorphism(n) for n in range(1, 6)] == [1, 1, 1, 2, 6]


def test_up_to_iso_representatives_cover_order5():
    reps = search(SearchSpec(order=5, mode="collect", isomorphs="up_to_iso")).found
    assert len(reps) == 6
    for i, a in enumerate(reps):
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


def test_value_pruning_does_not_change_results():
    spec = SearchSpec(order=5, required=("lbol",), mode="collect")
    with_pruning = search(spec, prune_values=True)
    without = search(spec, prune_values=False)
    assert tables(with_pruning.found) == tables(without.found)


def test_cell_orders_agree():
    spec_mrv = SearchSpec(order=5, required=("lip",), mode="collect", cell_order="mrv")
    spec_rm = SearchSpec(order=5, required=("lip",), mode="collect", cell_order="row_major")
    assert tables(search(spec_mrv).found) == tables(search(spec_rm).found)


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


@pytest.mark.parametrize(
    "order, required, forbidden, mode, count, visited",
    [
        (6, ("osborn",), ("cc", "moufang"), "count", 0, 2552),
        (5, ("moufang",), (), "collect", 6, 93),
        (6, ("buchsteiner",), (), "count", 120, 3161),
        (6, ("cc",), ("associative",), "count", 40, 2880),
    ],
)
def test_node_counts_are_pinned(order, required, forbidden, mode, count, visited):
    # Identity propagation and value pruning decide which nodes the search
    # visits; a faster evaluator must not change them.
    res = search(SearchSpec(order=order, required=required, forbidden=forbidden, mode=mode))
    assert (res.count, res.visited) == (count, visited)


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
    spec = SearchSpec(order=5, required=("commutative",), mode="collect", shards=4)
    assert tables(search(spec).found) == tables(
        search(SearchSpec(order=5, required=("commutative",), mode="collect")).found
    )


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


def test_budget_seconds_raises():
    with pytest.raises(BudgetExceeded):
        search(SearchSpec(order=7, mode="count"), budget_seconds=0.05)


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
