"""Subloops, nuclei, center, normality, quotients, nilpotency."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import center_oracle
import subloop_oracle
from loop_strategies import loops, relabel
from loopkit import perms, structure
from loopkit.core import LoopTable, isomorphic
from loopkit.errors import NotASubloop, NotNormal
from loopkit.structure import SubloopSet
from loopkit.tables import chein_double, cyclic, dihedral
from loopkit.varieties import Context
from normality_oracle import is_normal_subloop as oracle_is_normal
from nuclei_oracle import nuclei_from_inner_mappings


def members(s):
    return set(s.members())


def test_subloop_set_basics():
    s = SubloopSet.from_members(6, [0, 3])
    assert 3 in s
    assert 1 not in s
    assert len(s) == 2
    assert members(s) == {0, 3}
    assert s <= SubloopSet.from_members(6, [0, 1, 3])
    with pytest.raises(ValueError):
        SubloopSet.from_members(4, [5])


def test_is_subloop(z6):
    assert structure.is_subloop(z6, SubloopSet.from_members(6, [0, 3]))
    assert structure.is_subloop(z6, SubloopSet.from_members(6, [0, 2, 4]))
    assert not structure.is_subloop(z6, SubloopSet.from_members(6, [0, 1]))
    assert not structure.is_subloop(z6, SubloopSet.from_members(6, [1, 2]))


def test_group_nuclei_are_everything(s3):
    assert members(structure.left_nucleus(s3)) == set(range(6))
    assert members(structure.middle_nucleus(s3)) == set(range(6))
    assert members(structure.right_nucleus(s3)) == set(range(6))
    assert members(structure.nucleus(s3)) == set(range(6))


def test_q5_has_trivial_nuclei(q5):
    assert members(structure.nucleus(q5)) == {0}
    assert members(structure.left_nucleus(q5)) == {0}
    assert members(structure.middle_nucleus(q5)) == {0}
    assert members(structure.right_nucleus(q5)) == {0}


def test_center_of_groups(z6, s3):
    assert members(structure.center(z6)) == set(range(6))
    assert members(structure.center(s3)) == {0}


def test_center_of_dihedral8():
    # D8 has center {1, r^2}; rotation r^2 has id 2.
    d8 = dihedral(4)
    assert members(structure.center(d8)) == {0, 2}


def test_moufang_double_has_trivial_center(m12):
    assert members(structure.center(m12)) == {0}
    assert members(structure.nucleus(m12)) == {0}


def test_nuclei_from_inner_mappings_match_scans(q5, s3, cc6, m12, classes6):
    sample = [q5, s3, cc6, m12] + [q for _id, q in classes6[:20]]
    for q in sample:
        left, middle, right = nuclei_from_inner_mappings(q)
        assert left == structure.left_nucleus(q)
        assert middle == structure.middle_nucleus(q)
        assert right == structure.right_nucleus(q)


def _nucleus_from_inner_mappings(q):
    left, middle, right = nuclei_from_inner_mappings(q)
    return SubloopSet(q.order, left.mask & middle.mask & right.mask)


def test_nucleus_matches_inner_mappings(corpus5, classes6):
    # The nucleus scans only the left nucleus, so the sample must hold
    # loops whose left nucleus is larger than the nucleus.
    larger_left = 0
    for _id, q in corpus5 + classes6:
        nuc = structure.nucleus(q)
        assert nuc == _nucleus_from_inner_mappings(q)
        larger_left += nuc != structure.left_nucleus(q)
    assert larger_left > 0


@settings(max_examples=60, deadline=None)
@given(loops(), st.data())
def test_nucleus_matches_inner_mappings_on_random_loops(classes6, q, data):
    # Few random loops have nuclei that differ, so each example also takes
    # a randomly relabeled order-6 class; 25 of the 109 have such nuclei.
    _id, c = data.draw(st.sampled_from(classes6))
    sigma = [0] + data.draw(st.permutations(range(1, 6)))
    for p in (q, relabel(c, sigma)):
        left, middle, right = nuclei_from_inner_mappings(p)
        assert structure.left_nucleus(p) == left
        assert structure.middle_nucleus(p) == middle
        assert structure.right_nucleus(p) == right
        nuc = SubloopSet(p.order, left.mask & middle.mask & right.mask)
        assert structure.nucleus(p) == nuc
        assert structure.center(p) == SubloopSet.from_members(
            p.order, [a for a in nuc.members() if p.L(a) == p.R(a)])


def test_subloop_generated(z6, s3):
    assert members(structure.subloop_generated(z6, [2])) == {0, 2, 4}
    assert members(structure.subloop_generated(z6, [1])) == set(range(6))
    assert members(structure.subloop_generated(s3, [3])) == {0, 3}
    assert members(structure.subloop_generated(s3, [1])) == {0, 1, 2}
    assert members(structure.subloop_generated(s3, ())) == {0}


def test_subloops_match_method_oracle(corpus5, classes6):
    # Every seed of one or two ids; a closure that misses products in one
    # order differs on 8 of these seeds in the order-6 classes.
    for _id, q in corpus5 + classes6:
        for seed in itertools.chain(*(itertools.combinations(range(1, q.order), k) for k in (1, 2))):
            generated = structure.subloop_generated(q, seed)
            assert generated == subloop_oracle.subloop_generated(q, seed)
            assert structure.is_subloop(q, generated)


@settings(max_examples=60, deadline=None)
@given(loops(), st.data())
def test_subloops_match_method_oracle_on_random_subsets(q, data):
    subset = data.draw(st.sets(st.integers(0, q.order - 1)))
    s = SubloopSet.from_members(q.order, subset)
    generated = structure.subloop_generated(q, subset)
    assert generated == subloop_oracle.subloop_generated(q, subset)
    assert structure.is_subloop(q, generated)
    assert structure.is_subloop(q, s) == subloop_oracle.is_subloop(q, s)


def test_subloop_table_extracts_cyclic_part(z6):
    s = SubloopSet.from_members(6, [0, 2, 4])
    sub = structure.subloop_table(z6, s)
    assert sub.order == 3
    assert isomorphic(sub, cyclic(3))
    with pytest.raises(NotASubloop):
        structure.subloop_table(z6, SubloopSet.from_members(6, [0, 1]))


def test_all_subloops_of_cyclic_group(z6):
    # One subgroup per divisor of 6.
    subs = structure.all_subloops(z6)
    assert [len(s) for s in subs] == [1, 2, 3, 6]


def test_all_subloops_of_s3(s3):
    subs = structure.all_subloops(s3)
    assert [len(s) for s in subs] == [1, 2, 2, 2, 3, 6]


@settings(max_examples=80, deadline=None)
@given(loops())
def test_all_subloops_match_subset_scan(q):
    # Every subset holding 0, kept when the oracle closes it under all
    # three operations.
    others = range(1, q.order)
    subsets = (SubloopSet.from_members(q.order, (0, *rest))
               for k in range(q.order) for rest in itertools.combinations(others, k))
    expected = sorted((s for s in subsets if subloop_oracle.is_subloop(q, s)),
                      key=lambda s: (len(s), s.mask))
    assert structure.all_subloops(q) == expected


def test_q5_subloops(q5):
    # 1*1 = 0, so {0, 1} is the one proper subloop.
    subs = structure.all_subloops(q5)
    assert [len(s) for s in subs] == [1, 2, 5]
    assert members(subs[1]) == {0, 1}


def test_normality_in_s3(s3):
    rotations = SubloopSet.from_members(6, [0, 1, 2])
    reflection = SubloopSet.from_members(6, [0, 3])
    assert structure.is_normal_subloop(s3, rotations)
    assert not structure.is_normal_subloop(s3, reflection)


def test_normality_matches_oracle(corpus5, classes6, s3, cc6):
    # Every subloop, {0} and Q among them, of every loop up to order 6.
    loops = [q for _id, q in corpus5 + classes6] + [s3, cc6]
    for q in loops:
        for s in structure.all_subloops(q):
            assert structure.is_normal_subloop(q, s) == oracle_is_normal(q, s)


@pytest.mark.parametrize("q", [cyclic(1), cyclic(6), chein_double(dihedral(3)), dihedral(8)],
                         ids=["trivial", "z6", "m12", "d16"])
def test_trivial_subloops_build_no_divisions(q):
    fresh = LoopTable(q.rows)
    n = fresh.order
    for s in (SubloopSet(n, 1), SubloopSet(n, (1 << n) - 1)):
        assert structure.is_normal_subloop(fresh, s)
    assert fresh._ldiv is None and fresh._rdiv is None
    if n > 1:
        # A proper subloop is decided from the division tables.
        structure.is_normal_subloop(fresh, structure.all_subloops(fresh)[1])
        assert fresh._ldiv is not None


@settings(max_examples=40, deadline=None)
@given(loops())
def test_normality_matches_oracle_on_random_loops(q):
    for s in structure.all_subloops(q):
        assert structure.is_normal_subloop(q, s) == oracle_is_normal(q, s)


@pytest.mark.parametrize("name, q, n_subloops, n_normal", [
    ("m12", chein_double(dihedral(3)), 24, 6),
    ("d16", dihedral(8), 19, 7),
])
def test_normal_subloop_counts_are_pinned(name, q, n_subloops, n_normal):
    subs = structure.all_subloops(q)
    assert len(subs) == n_subloops, name
    assert sum(structure.is_normal_subloop(q, s) for s in subs) == n_normal, name
    assert sum(oracle_is_normal(q, s) for s in subs) == n_normal, name


def test_normality_builds_no_group(cc6, m12, monkeypatch):
    cases = []
    for q in (cc6, m12):
        subs = structure.all_subloops(q)
        normal = [oracle_is_normal(q, s) for s in subs]
        cases.append((q, subs, normal, structure.nilpotency_class(q)))

    def no_closure(*args, **kwargs):
        raise AssertionError("a permutation group was built")

    monkeypatch.setattr(perms, "closure", no_closure)
    for q, subs, normal, ncls in cases:
        assert [structure.is_normal_subloop(q, s) for s in subs] == normal
        for s, is_normal in zip(subs, normal):
            if is_normal:
                qt, _ = structure.quotient(q, s)
                assert qt.order * len(s) == q.order
            else:
                with pytest.raises(NotNormal):
                    structure.quotient(q, s)
        assert structure.nilpotency_class(q) == ncls


@settings(max_examples=60, deadline=None)
@given(loops())
def test_quotient_projection_is_a_homomorphism_with_kernel_s(q):
    for s in structure.all_subloops(q):
        if not structure.is_normal_subloop(q, s):
            continue
        qt, coset_of = structure.quotient(q, s)
        assert sorted(set(coset_of)) == list(range(qt.order))
        for x in range(q.order):
            for y in range(q.order):
                assert coset_of[q.mul(x, y)] == qt.mul(coset_of[x], coset_of[y])
        assert tuple(x for x in range(q.order) if coset_of[x] == 0) == s.members()


def test_quotient_of_z6(z6):
    by3 = SubloopSet.from_members(6, [0, 2, 4])
    qt, coset_of = structure.quotient(z6, by3)
    assert qt.order == 2
    assert isomorphic(qt, cyclic(2))
    for x in range(6):
        for y in range(6):
            assert coset_of[z6.mul(x, y)] == qt.mul(coset_of[x], coset_of[y])


def test_quotient_of_s3(s3):
    rotations = SubloopSet.from_members(6, [0, 1, 2])
    qt, _ = structure.quotient(s3, rotations)
    assert isomorphic(qt, cyclic(2))
    with pytest.raises(NotNormal):
        structure.quotient(s3, SubloopSet.from_members(6, [0, 3]))


def test_quotient_by_trivial_subloop(m12):
    qt, coset_of = structure.quotient(m12, SubloopSet.from_members(12, [0]))
    assert qt.order == 12
    assert isomorphic(qt, m12)
    assert list(coset_of) == list(range(12))


def test_nilpotency_classes_of_groups(z6, s3):
    assert structure.nilpotency_class(z6) == 1
    assert structure.nilpotency_class(s3) is None
    assert structure.nilpotency_class(dihedral(4)) == 2
    assert structure.nilpotency_class(dihedral(8)) == 3
    assert structure.nilpotency_class(cyclic(1)) == 0


def _assert_context_matches_oracle(q):
    ctx = Context(q)
    z = center_oracle.center(q)
    assert ctx.center == z
    assert ctx.central_factor.q.rows == center_oracle.quotient(q, z).rows
    assert ctx.central_factor.q.order * len(ctx.center) == q.order
    ncls = center_oracle.nilpotency_class(q)
    assert ctx.nilpotency_class == ncls
    assert structure.nilpotency_class(q) == ncls


@settings(max_examples=60, deadline=None)
@given(loops())
def test_context_center_and_class_match_oracle(q):
    _assert_context_matches_oracle(q)


def test_context_center_and_class_match_oracle_on_named_loops(classes6, m12):
    # Two order-6 classes have a commuting element of the left nucleus
    # outside the center, and random loops have class 0, 1 or none, so
    # these add loops of class 2 and 3.
    for q in (*(q for _id, q in classes6), m12, dihedral(4), dihedral(8),
              chein_double(dihedral(4))):
        _assert_context_matches_oracle(q)


def test_moufang_double_not_nilpotent(m12):
    assert structure.nilpotency_class(m12) is None


def test_chein_double_of_d8_is_nilpotent():
    m16 = chein_double(dihedral(4))
    cls = structure.nilpotency_class(m16)
    assert cls is not None
    assert cls >= 2
