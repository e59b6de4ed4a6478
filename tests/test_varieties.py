"""Variety catalog, autotopisms, pseudoautomorphisms, theorem suite."""

from dataclasses import dataclass

import pytest

from loopkit import structure, varieties
from loopkit.core import direct_product, isomorphic, opposite, principal_isotope
from loopkit.errors import LoopError, UnknownVariety
from loopkit.perms import Perm
from loopkit.tables import chein_double, cyclic, dihedral
from loopkit.varieties import (
    catalog_names,
    check_variety,
    companion_of_left_inner,
    companion_of_right_inner,
    get_entry,
    is_autotopism,
    is_automorphism,
    is_g_loop,
    is_left_pseudoautomorphism,
    is_proper_osborn,
    is_right_pseudoautomorphism,
    nuclear_triple,
    order16_report,
    propagation_programs,
    verify_theorems,
)


class NotAutotopism(LoopError):
    """Triple of permutations fails the autotopism condition."""


@dataclass(frozen=True)
class Autotopism:
    """A verified autotopism triple: alpha(x) * beta(y) == gamma(x*y)."""

    alpha: Perm
    beta: Perm
    gamma: Perm

    @classmethod
    def checked(cls, q, alpha, beta, gamma):
        if not is_autotopism(q, alpha, beta, gamma):
            raise NotAutotopism("triple fails the autotopism condition")
        return cls(alpha, beta, gamma)


def osborn_triple(q, x):
    """(L(xl)^-1, R(x), L(x)R(x)) with xl the left inverse of x."""
    return q.L(q.left_inv(x)).inverse(), q.R(x), q.L(x) * q.R(x)


def test_catalog_is_complete_and_resolvable():
    names = catalog_names()
    assert len(names) == len(set(names))
    for name in names:
        entry = get_entry(name)
        assert entry.name == name
        assert entry.summary
    for required in ("associative", "commutative", "moufang", "osborn", "cc",
                     "lbol", "rbol", "lcc", "rcc", "wip", "aaip", "vd",
                     "buchsteiner", "gen_moufang", "nuclear_squares", "gloop"):
        assert required in names


def test_unknown_variety_raises(z4):
    with pytest.raises(UnknownVariety):
        get_entry("nope")
    with pytest.raises(UnknownVariety):
        check_variety(z4, "nope")


def test_propagation_programs_only_for_equational():
    progs = propagation_programs("osborn")
    assert len(progs) == 8
    with pytest.raises(ValueError):
        propagation_programs("gloop")


def test_groups_hit_expected_flags(z6, s3):
    for name in ("associative", "moufang", "lbol", "rbol", "cc", "lcc", "rcc",
                 "osborn", "buchsteiner", "extra", "nuclear_squares", "lip",
                 "rip", "ip", "flx", "lc", "rc", "c", "lap", "rap", "ap",
                 "wip", "aaip"):
        assert check_variety(z6, name), name
        assert check_variety(s3, name), name
    assert check_variety(z6, "commutative")
    assert not check_variety(s3, "commutative")
    # Crossed inverse x*(y*x^-1) = ... holds in abelian groups only.
    assert check_variety(z6, "cip")
    assert not check_variety(s3, "cip")


def test_moufang_double_flags(m12):
    assert check_variety(m12, "moufang")
    assert check_variety(m12, "ip")
    assert check_variety(m12, "flx")
    assert check_variety(m12, "lbol")
    assert check_variety(m12, "rbol")
    assert check_variety(m12, "osborn")
    assert not check_variety(m12, "associative")
    assert not check_variety(m12, "lc")


def test_cc6_flags(cc6):
    assert check_variety(cc6, "cc")
    assert check_variety(cc6, "lcc")
    assert check_variety(cc6, "rcc")
    assert check_variety(cc6, "osborn")
    assert not check_variety(cc6, "associative")
    assert not check_variety(cc6, "moufang")


def test_osborn_forms_agree(corpus5, cc6, m12):
    loops = [q for _id, q in corpus5] + [cc6, m12]
    for q in loops:
        flags = {check_variety(q, f"osborn{i}") for i in range(1, 9)}
        assert len(flags) == 1
        assert check_variety(q, "osborn") in flags


def test_osborn_closed_under_opposite(corpus5):
    for _id, q in corpus5:
        assert check_variety(q, "osborn") == check_variety(opposite(q), "osborn")


def test_nuclear_triples_are_autotopisms(cc6):
    for kind, nuc in (
        ("left", structure.left_nucleus(cc6)),
        ("middle", structure.middle_nucleus(cc6)),
        ("right", structure.right_nucleus(cc6)),
    ):
        for a in range(cc6.order):
            if a in nuc:
                alpha, beta, gamma = nuclear_triple(cc6, a, kind)
                assert is_autotopism(cc6, alpha, beta, gamma)
                Autotopism.checked(cc6, alpha, beta, gamma)
            else:
                alpha, beta, gamma = nuclear_triple(cc6, a, kind)
                assert not is_autotopism(cc6, alpha, beta, gamma)
                with pytest.raises(NotAutotopism):
                    Autotopism.checked(cc6, alpha, beta, gamma)


def test_osborn_triples_characterize_osborn(q5, cc6):
    assert all(is_autotopism(cc6, *osborn_triple(cc6, x)) for x in range(cc6.order))
    assert not all(is_autotopism(q5, *osborn_triple(q5, x)) for x in range(q5.order))


def test_is_automorphism_negation_on_cyclic(z6):
    neg = Perm([(-x) % 6 for x in range(6)])
    assert is_automorphism(z6, neg)
    shift = Perm([(x + 1) % 6 for x in range(6)])
    assert not is_automorphism(z6, shift)


def test_inner_mappings_are_pseudoautomorphisms_on_osborn(cc6):
    q = cc6
    for x in range(q.order):
        for y in range(q.order):
            lxy = q.L(q.mul(x, y)).inverse()
            phi = lxy * q.L(x) * q.L(y)
            assert is_left_pseudoautomorphism(q, phi, companion_of_left_inner(q, x, y))
            ryx = q.R(q.mul(y, x)).inverse()
            psi = ryx * q.R(x) * q.R(y)
            assert is_right_pseudoautomorphism(q, psi, companion_of_right_inner(q, x, y))


def test_g_loop_recognition(z4, cc6, q5):
    assert is_g_loop(z4)
    assert is_g_loop(cc6)
    assert not is_g_loop(q5)


def _g_loop_by_full_scan(q):
    return all(
        isomorphic(q, principal_isotope(q, a, b)) is not None
        for a in range(q.order)
        for b in range(q.order)
    )


def test_g_loop_matches_full_isotope_scan(corpus5, z4, z6, s3, d8, q5, cc6, m12):
    loops = [q for _id, q in corpus5] + [z4, z6, s3, d8, q5, cc6, m12]
    assert [is_g_loop(q) for q in loops] == [_g_loop_by_full_scan(q) for q in loops]


def test_theorem_suite_clean_on_named_loops(z4, z6, s3, d8, q5, cc6, m12):
    for loop_id, q in (("z4", z4), ("z6", z6), ("s3", s3), ("d8", d8),
                       ("q5", q5), ("cc6", cc6), ("m12", m12)):
        report = verify_theorems(q, loop_id=loop_id)
        assert report.failures() == [], loop_id
        lines = report.format().splitlines()
        assert len(lines) == len(report.rows)
        for line in lines:
            parts = line.split()
            assert parts[0] == loop_id
            assert parts[-1] in ("PASS", "FAIL", "N/A")


def test_theorem_suite_marks_inapplicable_rows(q5):
    report = verify_theorems(q5, loop_id="q5")
    statuses = {check_id: status for check_id, status in report.rows}
    # q5 is not Osborn, so Osborn-hypothesis checks do not apply.
    assert statuses["osborn_nuclei_coincide_and_normal"] == "N/A"
    # The eight-way agreement applies to every loop.
    assert statuses["osborn_eightway_agreement"] == "PASS"


def test_proper_osborn_gate(z4, cc6, m12):
    assert not is_proper_osborn(z4)
    assert not is_proper_osborn(cc6)
    assert not is_proper_osborn(m12)


def test_order16_report_on_cyclic_group():
    rep = order16_report(cyclic(16), "z16")
    statuses = dict(rep.rows)
    assert statuses["center_order_two"] == "FAIL"
    assert statuses["dihedral8_subloop"] == "FAIL"
    assert statuses["nilpotency_class_three"] == "FAIL"
    assert statuses["fourth_power_translations"] == "no"
    assert len(rep.failures()) == 4


def test_order16_report_on_dihedral_group():
    # D16: center {1, r^4}, a D8 subgroup, class 3, but the central
    # quotient is the (associative) D8.
    rep = order16_report(dihedral(8), "d16")
    statuses = dict(rep.rows)
    assert statuses["center_order_two"] == "PASS"
    assert statuses["dihedral8_subloop"] == "PASS"
    assert statuses["central_quotient_order_eight"] == "PASS"
    assert statuses["central_quotient_nonassociative"] == "FAIL"
    assert statuses["nilpotency_class_three"] == "PASS"
    assert statuses["fourth_power_translations"] == "no"


def test_order16_report_on_doubled_d8():
    # Exponent 4 Moufang loop: every translation has fourth power one.
    m16 = chein_double(dihedral(4))
    rep = order16_report(m16, "m16")
    statuses = dict(rep.rows)
    assert statuses["fourth_power_translations"] == "yes"
    assert statuses["center_order_two"] == "PASS"
    assert statuses["dihedral8_subloop"] == "PASS"


def test_order16_report_lets_unexpected_errors_through(monkeypatch):
    def broken(q, s):
        raise RuntimeError("bug in quotient")

    monkeypatch.setattr(structure, "quotient", broken)
    with pytest.raises(RuntimeError):
        order16_report(dihedral(8), "d16")


def test_order16_report_rejects_other_orders(z4):
    with pytest.raises(ValueError):
        order16_report(z4, "z4")


def test_direct_product_preserves_flags(cc6, z4):
    p = direct_product(cc6, z4)
    assert check_variety(p, "cc")
    assert not check_variety(p, "associative")
    assert check_variety(p, "osborn")
