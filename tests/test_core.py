"""Table validation, loop operations, isotopes, isomorphism, io."""

import hashlib
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import isomorphism_oracle as oracle
from division_oracle import division_tables
from loop_strategies import loops, relabel
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


def _check_divisions(t, first, args):
    """t's divisions, first read through ``first``, against the eager
    reference and the equations they solve."""
    assert t._ldiv is None and t._rdiv is None
    getattr(t, first)(*args[: 2 if first.endswith("div") else 1])
    ldiv, rdiv = division_tables(t)
    assert t.divisions() == (tuple(map(tuple, ldiv)), tuple(map(tuple, rdiv)))
    n = t.order
    for x in range(n):
        assert t.left_inv(x) == rdiv[0][x] and t.right_inv(x) == ldiv[x][0]
        for y in range(n):
            assert t.ldiv(x, y) == ldiv[x][y] and t.rdiv(x, y) == rdiv[x][y]
            assert t.mul(x, t.ldiv(x, y)) == y and t.mul(t.rdiv(x, y), y) == x


@settings(max_examples=60, deadline=None)
@given(loops(), st.data())
def test_lazy_divisions_match_eager_reference(q, data):
    elem = st.integers(0, q.order - 1)
    a, b, x, y = (data.draw(elem) for _ in range(4))
    first = data.draw(st.sampled_from(("ldiv", "rdiv", "left_inv", "right_inv")))
    for t in (q, canonical_table(q)):
        _check_divisions(t, first, (x, y))
    # principal_isotope reads q's divisions, so it runs after q's check.
    _check_divisions(principal_isotope(q, a, b), first, (x, y))


def test_keys_and_collect_leaves_build_no_division_tables(q5, monkeypatch):
    iso = principal_isotope(q5, 2, 3)

    def refuse(self):
        raise AssertionError("a division table was built")

    monkeypatch.setattr(LoopTable, "divisions", refuse)
    canonical_key(iso)
    assert iso._ldiv is None and iso._rdiv is None
    res = search(SearchSpec(order=5, mode="collect", isomorphs="up_to_iso"))
    assert res.count == 6
    assert all(q._ldiv is None and q._rdiv is None for q in res.found)


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


@settings(max_examples=60, deadline=None)
@given(loops(), st.data())
def test_principal_isotope_matches_its_definition(q, data):
    # x.y = sigma((sigma x / b) * (a \ sigma y)), sigma swapping 0 and ab.
    n = q.order
    a, b = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    ldiv, rdiv = division_tables(q)
    sigma = list(range(n))
    e = q.mul(a, b)
    sigma[0], sigma[e] = e, 0
    iso = principal_isotope(q, a, b)
    for x in range(n):
        for y in range(n):
            assert iso.mul(x, y) == sigma[q.mul(rdiv[sigma[x]][b], ldiv[a][sigma[y]])]


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


def _cycle_lengths(p, n):
    lens = [len(c) for c in p.cycles()]
    return tuple(sorted(lens + [1] * (n - sum(lens))))


_NAMED = (
    cyclic(7),
    dihedral(4),
    direct_product(cyclic(2), cyclic(4)),
    chein_double(dihedral(3)),
    dihedral(8),
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(loops(), st.sampled_from(_NAMED)))
def test_translation_fingerprints_match_cycle_structure(q):
    n = q.order
    want = [(_cycle_lengths(q.L(x), n), _cycle_lengths(q.R(x), n)) for x in range(n)]
    memo = core._cycle_type
    assert memo.cache_info().maxsize == 8192
    memo.cache_clear()
    assert core._translation_fingerprints(q) == want
    hits = memo.cache_info().hits
    assert core._translation_fingerprints(q) == want
    # The second pass reads all 2n cycle types from the memo.
    assert memo.cache_info().hits == hits + 2 * n


def _digest(keys):
    """sha256 over canonical keys in turn, one byte per entry (orders <= 64)."""
    return hashlib.sha256(bytes(chain.from_iterable(keys))).hexdigest()


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
    keys = [canonical_key(q) for q in qs]
    # Pinned byte for byte, in search order: a faster engine must not move
    # a single stored key, even to another complete invariant.
    assert _digest(keys) == "4f85194b05e481dda284bc8a518cf15cbf08f41cee09a1af9e6acafcb9261ca3"
    assert _same_partition(qs, dict(zip(qs, keys)).__getitem__, oracle.canonical_key)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_walk_engine_matches_oracle_on_random_loops(data):
    q1 = data.draw(loops())
    n = q1.order
    q2 = data.draw(loops(order=n))
    sigma = [0] + data.draw(st.permutations(range(1, n)))
    relabeled = relabel(q1, sigma)
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
    keys = []
    for q, expected in ((dihedral(8), 384), (chein_double(dihedral(3)), 432)):
        count[0] = 0
        keys.append(tuple(chain.from_iterable(canonical_table(q).rows)))
        assert count[0] == expected
    assert _digest(keys) == (
        "ee22e367c0faa29b693a4495018a5bdc1ffd9f99fedfdebdbcd22eb92dc52a29"
    )


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((7, 8)), st.data())
def test_canonical_form_on_order7_and_order8_tables(n, data):
    slices = 64
    index = data.draw(st.integers(0, slices - 1))
    found = search(SearchSpec(n, mode="first", shard_slice=(index, slices))).found
    assume(found)
    q = found[0]
    sigma = [0] + data.draw(st.permutations(range(1, n)))
    assert canonical_key(relabel(q, sigma)) == canonical_key(q)
    table = canonical_table(q)
    phi = isomorphic(q, table)
    assert phi is not None and _is_isomorphism(phi, q, table)


def test_dump_load_round_trip(tmp_path, m12):
    text = dumps(m12)
    assert loads(text) == m12
    path = tmp_path / "m12.loop"
    dump_path(m12, str(path))
    assert load_path(str(path)) == m12


@settings(max_examples=60, deadline=None)
@given(loops())
def test_dump_load_round_trip_on_random_loops(q):
    assert loads(dumps(q)) == q


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
