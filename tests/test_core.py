"""Table validation, loop operations, isotopes, isomorphism, io."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import isomorphism_oracle as oracle
from loop_strategies import loops
from loopkit import core
from loopkit.core import (
    LoopTable,
    canonical_key,
    canonical_table,
    direct_product,
    dump_path,
    dumps,
    isomorphic,
    load_path,
    loads,
    opposite,
    principal_isotope,
)
from loopkit.errors import (
    BadDimensions,
    NoIdentity,
    NotLatin,
    OrderMismatch,
    OrderTooLarge,
    ParseError,
)
from loopkit.search import SearchSpec, search
from loopkit.tables import chein_double, cyclic, dihedral


def test_rejects_ragged_rows():
    with pytest.raises(BadDimensions):
        LoopTable([[0, 1], [1]])


def test_rejects_out_of_range_entry():
    with pytest.raises(BadDimensions):
        LoopTable([[0, 1], [1, 2]])


def test_rejects_duplicate_in_row():
    with pytest.raises(NotLatin) as exc:
        LoopTable([[0, 1, 2], [1, 2, 2], [2, 0, 1]])
    assert exc.value.axis == "row"
    assert exc.value.index == 1


def test_rejects_duplicate_in_column():
    # Rows are each permutations but column 2 repeats.
    with pytest.raises(NotLatin) as exc:
        LoopTable([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0][::-1]])
    assert exc.value.axis == "col"


def test_rejects_missing_identity():
    # Latin square whose first row is not the identity permutation.
    with pytest.raises(NoIdentity):
        LoopTable([[1, 0], [0, 1]])


def test_rejects_huge_order_without_override():
    n = 65
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    with pytest.raises(OrderTooLarge):
        LoopTable(rows)
    assert LoopTable(rows, max_order=128).order == n


def test_division_round_trips(corpus5):
    for _id, q in corpus5:
        n = q.order
        for x in range(n):
            for y in range(n):
                assert q.mul(x, q.ldiv(x, y)) == y
                assert q.ldiv(x, q.mul(x, y)) == y
                assert q.mul(q.rdiv(x, y), y) == x
                assert q.rdiv(q.mul(x, y), y) == x


def test_one_sided_inverses(q5):
    for x in range(q5.order):
        assert q5.mul(x, q5.right_inv(x)) == 0
        assert q5.mul(q5.left_inv(x), x) == 0


def test_translations_act_as_table(q5):
    for x in range(q5.order):
        for y in range(q5.order):
            assert q5.L(x)(y) == q5.mul(x, y)
            assert q5.R(x)(y) == q5.mul(y, x)


def test_opposite_swaps_arguments(q5):
    opp = opposite(q5)
    for x in range(5):
        for y in range(5):
            assert opp.mul(x, y) == q5.mul(y, x)
    assert opposite(opp) == q5


def test_direct_product_componentwise():
    p = direct_product(cyclic(2), cyclic(3))
    assert p.order == 6
    assert isomorphic(p, cyclic(6))


def test_direct_product_order_cap_override():
    a = dihedral(4)
    with pytest.raises(OrderTooLarge):
        direct_product(a, direct_product(a, a))
    big = direct_product(a, direct_product(a, a, max_order=64), max_order=512)
    assert big.order == 512


def test_principal_isotope_at_identity_is_same(q5):
    assert principal_isotope(q5, 0, 0) == q5


def test_group_isotopes_stay_isomorphic():
    # Every loop isotopic to a group is isomorphic to it.
    g = cyclic(4)
    for a in range(4):
        for b in range(4):
            assert isomorphic(principal_isotope(g, a, b), g)


def test_isomorphic_accepts_relabeling(z6):
    # Relabel by the automorphism-free permutation (0)(1 4 2 3 5).
    sigma = [0, 4, 3, 5, 2, 1]
    inv = [0] * 6
    for i, s in enumerate(sigma):
        inv[s] = i
    rows = [[sigma[z6.mul(inv[i], inv[j])] for j in range(6)] for i in range(6)]
    assert isomorphic(z6, LoopTable(rows))


def test_isomorphic_distinguishes_groups(z6, s3):
    assert not isomorphic(z6, s3)


def test_isomorphic_rejects_order_mismatch(z4, z6):
    with pytest.raises(OrderMismatch):
        isomorphic(z4, z6)


def _relabel(q, sigma):
    """q with each x renamed sigma[x]; sigma fixes 0."""
    n = q.order
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[sigma[x]][sigma[y]] = sigma[q.mul(x, y)]
    return LoopTable(rows)


def _is_isomorphism(phi, q1, q2):
    return all(
        phi(q1.mul(x, y)) == q2.mul(phi(x), phi(y)) for x in q1.elements() for y in q1.elements()
    )


def _same_partition(qs, key, oracle_key):
    classes = {}
    oracle_classes = {}
    for i, q in enumerate(qs):
        classes.setdefault(key(q), []).append(i)
        oracle_classes.setdefault(oracle_key(q), []).append(i)
    return sorted(classes.values()) == sorted(oracle_classes.values())


def _agrees_with_oracle(q1, q2):
    phi = isomorphic(q1, q2)
    if phi is not None and not _is_isomorphism(phi, q1, q2):
        return False
    return (phi is not None) == (oracle.isomorphic(q1, q2) is not None)


def test_walk_engine_matches_oracle_on_corpus5(corpus5):
    by_order = {}
    for _id, q in corpus5:
        by_order.setdefault(q.order, []).append(q)
    for qs in by_order.values():
        assert _same_partition(qs, canonical_key, oracle.canonical_key)
        for q in qs:
            assert oracle.isomorphic(q, canonical_table(q)) is not None
            for r in qs:
                assert _agrees_with_oracle(q, r)


def test_canonical_keys_match_oracle_on_every_order6_table():
    qs = search(SearchSpec(order=6, mode="collect")).found
    assert len(qs) == 9408
    assert _same_partition(qs, canonical_key, oracle.canonical_key)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_walk_engine_matches_oracle_on_random_loops(data):
    q1 = data.draw(loops())
    n = q1.order
    q2 = data.draw(loops(order=n))
    sigma = [0] + data.draw(st.permutations(range(1, n)))
    relabeled = _relabel(q1, sigma)
    assert canonical_key(relabeled) == canonical_key(q1)
    assert (canonical_key(q1) == canonical_key(q2)) == (
        oracle.canonical_key(q1) == oracle.canonical_key(q2)
    )
    assert oracle.isomorphic(q1, canonical_table(q1)) is not None
    assert _agrees_with_oracle(q1, q2)
    phi = isomorphic(q1, relabeled)
    assert phi is not None and _is_isomorphism(phi, q1, relabeled)


def test_canonical_table_walks_only_least_fingerprint_generators(monkeypatch):
    # Trying every unlabeled generator at each step takes 1,728 and 756 walks.
    walks = core._walks
    count = [0]

    def counting(q, pick):
        for walk in walks(q, pick):
            count[0] += 1
            yield walk

    monkeypatch.setattr(core, "_walks", counting)
    for q, expected in ((dihedral(8), 384), (chein_double(dihedral(3)), 432)):
        count[0] = 0
        canonical_table(q)
        assert count[0] == expected


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((7, 8)), st.data())
def test_canonical_form_on_order7_and_order8_tables(n, data):
    slices = 64
    index = data.draw(st.integers(0, slices - 1))
    found = search(SearchSpec(n, mode="first", shard_slice=(index, slices))).found
    assume(found)
    q = found[0]
    sigma = [0] + data.draw(st.permutations(range(1, n)))
    assert canonical_key(_relabel(q, sigma)) == canonical_key(q)
    table = canonical_table(q)
    phi = isomorphic(q, table)
    assert phi is not None and _is_isomorphism(phi, q, table)


def test_dump_load_round_trip(tmp_path, m12):
    text = dumps(m12)
    assert loads(text) == m12
    path = tmp_path / "m12.loop"
    dump_path(m12, str(path))
    assert load_path(str(path)) == m12


def test_loads_rejects_malformed():
    with pytest.raises(ParseError):
        loads("not a table")
    with pytest.raises(ParseError):
        loads("2\n0 1\n")
    with pytest.raises(ParseError):
        loads("2\n0 1\n1 x\n")


def test_tables_hash_and_compare(z4):
    same = LoopTable([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]])
    assert same == z4
    assert hash(same) == hash(z4)
    assert same != cyclic(5)


def test_chein_double_squares():
    # Doubled elements gu all square to the identity.
    m = chein_double(dihedral(3))
    for x in range(6, 12):
        assert m.mul(x, x) == 0
