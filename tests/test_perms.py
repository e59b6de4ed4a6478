"""Permutations, closures, multiplication and inner mapping groups."""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopkit import perms
from loopkit.core import LoopTable, direct_product
from loopkit.errors import DegreeMismatch
from loopkit.perms import Perm, closure, commutator_LR
from loopkit.tables import chein_double, cyclic, dihedral
from loopkit.varieties import verify_theorems
from loop_strategies import loops
from nuclei_oracle import fixed_points
from perms_oracle import closure_elements, elements, is_normal_subgroup, standard_generators


def test_composition_applies_right_factor_first():
    p = Perm([1, 2, 0])
    q = Perm([0, 2, 1])
    # (p*q)(x) = p(q(x))
    for x in range(3):
        assert (p * q)(x) == p(q(x))


def test_inverse_and_power():
    p = Perm([1, 2, 3, 0])
    assert p * p.inverse() == Perm.identity(4)
    assert p ** 4 == Perm.identity(4)
    assert p ** -1 == p.inverse()
    assert p ** 0 == Perm.identity(4)


def test_cycles_and_str():
    p = Perm([1, 0, 2, 4, 3])
    assert p.cycles() == [(0, 1), (3, 4)]
    assert not p.is_identity()
    assert Perm.identity(3).is_identity()


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatch):
        Perm([1, 0]) * Perm([0, 1, 2])


def test_closure_generates_symmetric_group():
    swap = Perm([1, 0, 2])
    cycle = Perm([1, 2, 0])
    g = closure([swap, cycle])
    assert len(g) == 6
    assert swap in g
    assert swap * cycle in g


def test_closure_of_no_generators_is_refused():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(DegreeMismatch):
        closure([Perm([1, 0]), Perm([0, 2, 1])])


def inn_left(q):
    return perms.stabilizer_of_0(perms.mlt_left(q))


def inn_right(q):
    return perms.stabilizer_of_0(perms.mlt_right(q))


def _oracle_groups(q):
    """Each group of ``perms`` as the breadth-first closure of its
    generators; Inn is the stabilizer of 0 in that closure of Mlt."""
    n = q.order
    ls = [q.L(x) for x in range(n)]
    rs = [q.R(x) for x in range(n)]
    std = standard_generators(q)
    full = closure_elements(ls + rs)
    return {
        perms.mlt: full,
        perms.mlt_left: closure_elements(ls),
        perms.mlt_right: closure_elements(rs),
        perms.inn: frozenset(p for p in full if p(0) == 0),
        inn_left: closure_elements(p for (kind, _x, _y), p in std if kind == "LL"),
        inn_right: closure_elements(p for (kind, _x, _y), p in std if kind == "RR"),
    }


@settings(max_examples=60, deadline=None)
@given(loops())
def test_chains_match_breadth_first_closure(q):
    probes = [q.L(x) for x in range(q.order)] + [q.R(x) for x in range(q.order)]
    probes += [p for _tag, p in standard_generators(q)]
    for build, expected in _oracle_groups(q).items():
        group = build(q)
        assert len(group) == len(expected), build.__name__
        assert elements(group) == expected, build.__name__
        assert all((p in group) == (p in expected) for p in probes), build.__name__


_PERM_LISTS = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.permutations(range(n)).map(Perm), min_size=1, max_size=6))
_TRANSLATIONS = loops().map(
    lambda q: [q.L(x) for x in range(q.order)] + [q.R(x) for x in range(q.order)])


@settings(max_examples=80, deadline=None)
@given(st.one_of(_TRANSLATIONS, _PERM_LISTS))
def test_closure_keeps_a_generating_subsequence(gens):
    group = closure(gens)
    kept = list(group.generators)
    rest = iter(gens)
    assert all(g in rest for g in kept)
    if not kept:
        assert all(g.is_identity() for g in gens)
        return
    again = closure(kept)
    assert again.order == group.order
    assert all(g in again for g in gens)


def test_group_equality_compares_generated_groups():
    swap, cycle = Perm([1, 0, 2]), Perm([1, 2, 0])
    assert closure([swap, cycle]) == closure([cycle * swap, swap * cycle, swap])
    assert closure([cycle]) != closure([swap, cycle])
    assert Perm([1, 0]) not in closure([cycle])


# The first loop of search(SearchSpec(10, mode="first", shard_slice=(37, 100))),
# written out so that later search changes cannot move it.  Its Mlt is S10,
# with 3,628,800 elements.
ORDER10_ROWS = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    [1, 0, 9, 2, 3, 4, 5, 6, 7, 8],
    [2, 3, 7, 8, 9, 0, 1, 4, 5, 6],
    [3, 8, 0, 6, 7, 9, 2, 1, 4, 5],
    [4, 2, 3, 1, 5, 6, 7, 8, 9, 0],
    [5, 4, 1, 0, 2, 8, 9, 3, 6, 7],
    [6, 5, 4, 7, 8, 1, 0, 9, 2, 3],
    [7, 6, 5, 9, 1, 2, 8, 0, 3, 4],
    [8, 9, 6, 4, 0, 7, 3, 5, 1, 2],
    [9, 7, 8, 5, 6, 3, 4, 2, 0, 1],
]


def test_order10_groups_need_no_listing():
    q = LoopTable(ORDER10_ROWS)
    assert len(perms.mlt(q)) == factorial(10)
    assert len(perms.inn(q)) == factorial(9)
    assert verify_theorems(q).failures() == []


def test_one_sided_inner_groups_match_standard_generators_at_larger_orders(m12):
    # Inn_left and Inn_right, read off the one-sided chains, against the
    # closure of the n^2 maps L(x*y)^-1 L(x) L(y) and R(y*x)^-1 R(x) R(y).
    z2 = cyclic(2)
    z2sq = direct_product(z2, z2)
    for q in (m12, chein_double(dihedral(4)), dihedral(8), direct_product(z2sq, z2sq)):
        std = standard_generators(q)
        for build, kind in ((inn_left, "LL"), (inn_right, "RR")):
            expected = closure(p for (k, _x, _y), p in std if k == kind)
            assert build(q) == expected, (q.order, kind)


def test_stabilizer_of_0_needs_0_as_first_base_point():
    assert len(perms.stabilizer_of_0(closure([Perm([1, 2, 0])]))) == 1
    with pytest.raises(ValueError):
        perms.stabilizer_of_0(closure([Perm([0, 2, 1])]))


def test_mlt_of_cyclic_group_is_regular():
    # For an abelian group left and right translations coincide and the
    # multiplication group is the group itself acting regularly.
    g = perms.mlt(cyclic(6))
    assert len(g) == 6


def test_mlt_of_s3_has_order_36():
    # For a group G, Mlt(G) = G_L G_R has order |G|^2 / |Z(G)|.
    g = perms.mlt(dihedral(3))
    assert len(g) == 36


def test_inn_of_group_is_inner_automorphisms():
    # Stabilizer of the identity in Mlt(G) is Inn(G) = G/Z(G).
    assert len(perms.inn(cyclic(6))) == 1
    assert len(perms.inn(dihedral(3))) == 6


def test_inn_fixed_points_are_group_center():
    fixed = fixed_points(elements(perms.inn(dihedral(3))))
    assert fixed == frozenset({0})
    fixed_abelian = fixed_points(elements(perms.inn(cyclic(5))))
    assert fixed_abelian == frozenset(range(5))


def test_standard_generators_cover_three_families(q5):
    gens = standard_generators(q5)
    n = q5.order
    assert len(gens) == 2 * n * n + n
    kinds = {tag[0] for tag, _p in gens}
    assert kinds == {"LL", "RR", "TR"}
    for _tag, p in gens:
        assert p(0) == 0


def test_inn_equals_standard_generator_closure(q5, s3, cc6):
    for q in (q5, s3, cc6):
        stab = perms.inn(q)
        gen = closure([p for _tag, p in standard_generators(q)])
        assert elements(stab) == elements(gen)


def test_left_translations_normal_in_group_mlt():
    # G_L is normal in Mlt(G) because G_R centralizes it.
    q = dihedral(3)
    ls = [q.L(x) for x in range(q.order)]
    rs = [q.R(x) for x in range(q.order)]
    assert is_normal_subgroup(perms.mlt_left(q), ls, ls + rs)
    assert is_normal_subgroup(perms.mlt_right(q), rs, ls + rs)


def test_commutators_vanish_on_groups():
    q = dihedral(4)
    for x in range(q.order):
        for y in range(q.order):
            assert commutator_LR(q, y, x).is_identity()


@settings(max_examples=40, deadline=None)
@given(loops())
def test_commutators_match_translation_products(q):
    for x in range(q.order):
        rx = q.R(x)
        for y in range(q.order):
            ly = q.L(y)
            assert commutator_LR(q, y, x) == ly.inverse() * rx.inverse() * ly * rx


def test_commutators_detect_nonassociativity(q5):
    assert any(
        not commutator_LR(q5, y, x).is_identity()
        for x in range(5)
        for y in range(5)
    )
