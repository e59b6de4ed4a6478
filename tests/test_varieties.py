"""Variety catalog, autotopisms, pseudoautomorphisms, theorem suite."""

from collections import Counter
from dataclasses import dataclass
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import theorem_oracle
from loop_strategies import loops
from loopkit import perms, structure, varieties
from loopkit.core import LoopTable, direct_product, isomorphic, opposite, principal_isotope
from loopkit.errors import LoopError, UnknownVariety
from loopkit.identities import check_identity
from loopkit.perms import Perm
from loopkit.search import SearchSpec, search
from loopkit.tables import chein_double, cyclic, dihedral
from loopkit.varieties import (
    catalog_names,
    check_variety,
    get_entry,
    is_autotopism,
    is_g_loop,
    is_proper_osborn,
    nuclear_triple,
    order16_report,
    propagation_programs,
    verify_theorems,
)
from identity_oracle import check_identity as oracle_check_identity
from identity_oracle import holds_at
from theorem_oracle import (
    companion_of_left_inner,
    companion_of_right_inner,
    is_automorphism,
    is_left_pseudoautomorphism,
    is_right_pseudoautomorphism,
)
from perms_oracle import is_normal_subgroup


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
    # The eight Osborn forms are equivalent, so every Osborn entry
    # propagates with form 4 alone, whichever form defines it.
    form4 = ["((x*y)*(x\\((x*z)*x))) = ((x*(y*z))*x)"]
    for name in ("osborn", *(f"osborn{i}" for i in range(1, 9))):
        assert [p.source for p in propagation_programs(name)] == form4, name
    moufang = get_entry("moufang").equations
    assert propagation_programs("moufang") == moufang
    assert propagation_programs("extra") == moufang + get_entry("nuclear_squares").equations
    assert propagation_programs("gloop") == ()


def test_propagation_programs_hold_on_every_member(classes6):
    # A search prunes a table that violates a propagator, so each one must
    # be implied by its entry: it holds on every member of the entry among
    # the classes of order at most 6.
    classes = [q for n in range(1, 6)
               for q in search(SearchSpec(n, mode="collect", isomorphs="up_to_iso")).found]
    classes += [q for _id, q in classes6]
    assert len(classes) == 120
    for name in catalog_names():
        progs = propagation_programs(name)
        members = [q for q in classes if progs and check_variety(q, name)]
        for q in members:
            for prog in progs:
                assert oracle_check_identity(q, prog), (name, q.rows, prog.source)


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


def test_inner_mappings_are_pseudoautomorphisms_on_osborn(cc6, m12):
    for q in (cc6, m12):
        for x in range(q.order):
            for y in range(q.order):
                lxy = q.L(q.mul(x, y)).inverse()
                phi = lxy * q.L(x) * q.L(y)
                assert is_right_pseudoautomorphism(q, phi, companion_of_left_inner(q, x, y))
                ryx = q.R(q.mul(y, x)).inverse()
                psi = ryx * q.R(x) * q.R(y)
                assert is_left_pseudoautomorphism(q, psi, companion_of_right_inner(q, x, y))


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


# Each row's (PASS, N/A, FAIL) counts over corpus5 and the named loops.
SUITE_COUNTS = {
    "lc_tenway_agreement": (70, 0, 0),
    "c_fiveway_agreement": (70, 0, 0),
    "lcc_lc_lbol_two_of_three": (17, 53, 0),
    "lbol_lc_iff_left_nuclear_squares": (18, 52, 0),
    "extra_loop_equivalences": (70, 0, 0),
    "lc_implies_lip_and_normal_left_nucleus": (17, 53, 0),
    "lip_left_middle_nuclei_equal": (18, 52, 0),
    "rip_right_middle_nuclei_equal": (18, 52, 0),
    "normal_mlt_left_gives_normal_right_nucleus": (70, 0, 0),
    "normal_mlt_right_gives_normal_left_nucleus": (70, 0, 0),
    "osborn_eightway_agreement": (70, 0, 0),
    "osborn_closed_under_opposite": (70, 0, 0),
    "moufang_implies_osborn": (18, 52, 0),
    "osborn_moufang_by_single_extra_property": (19, 51, 0),
    "osborn_aaip_implies_moufang": (18, 52, 0),
    "cc_implies_osborn": (18, 52, 0),
    "osborn_cc_lcc_rcc_agree": (19, 51, 0),
    "vd_implies_osborn": (18, 52, 0),
    "gen_moufang_iff_wip_osborn": (70, 0, 0),
    "osborn_translation_conjugation": (19, 51, 0),
    "osborn_mlt_one_sided_normal": (19, 51, 0),
    "osborn_inner_groups_coincide": (19, 51, 0),
    "osborn_commutator_translation_forms": (19, 51, 0),
    "osborn_nuclei_coincide_and_normal": (19, 51, 0),
    "osborn_inner_pseudo_companions": (19, 51, 0),
    "osborn_inverse_translation_automorphisms": (19, 51, 0),
    "osborn_alpha_forms": (19, 51, 0),
    "osborn_cip_implies_commutative_moufang": (15, 55, 0),
    "osborn_a_loop_factor_commutative_moufang": (18, 52, 0),
    "cc_factor_by_nucleus_abelian": (18, 52, 0),
    "buchsteiner_nuclei_coincide": (18, 52, 0),
    "osborn_buchsteiner_nuclear_squares_two_of_three": (18, 52, 0),
    "osborn_buchsteiner_square_law_two_of_three": (18, 52, 0),
    "gen_moufang_wipcc_nuclear_squares_two_of_three": (18, 52, 0),
    "buchsteiner_square_translations": (18, 52, 0),
    "buchsteiner_right_square_translation": (18, 52, 0),
    "nuclear_square_left_translation": (70, 0, 0),
    "osborn_nuclear_square_translation": (19, 51, 0),
    "square_law_autotopism_agreement": (70, 0, 0),
    "nucleus_autotopism_route_agreement": (70, 0, 0),
}


def test_theorem_suite_row_counts_are_pinned(corpus5, z4, z6, s3, d8, q5, cc6, m12):
    counts = {}
    for q in [q for _id, q in corpus5] + [z4, z6, s3, d8, q5, cc6, m12]:
        for check_id, status in verify_theorems(q).rows:
            counts.setdefault(check_id, Counter())[status] += 1
    pinned = {check_id: (c["PASS"], c["N/A"], c["FAIL"]) for check_id, c in counts.items()}
    assert list(pinned.items()) == list(SUITE_COUNTS.items())


def test_theorem_suite_evaluates_each_identity_once(z4, z6, s3, d8, q5, cc6, m12,
                                                    monkeypatch):
    # Catalog conjunctions are decided from their parts' cached flags, and
    # no row re-evaluates an identity another row or flag already has.
    evaluated = Counter()
    tables = []  # holds every table, so no id is reused for another
    real = varieties.check_identity

    def counting(q, prog, among=None):
        # A run with x over a set of elements that is not the whole loop is
        # another evaluation; one over every element is a whole-loop run.
        tables.append(q)
        xs = None if among is None or set(among) == set(range(q.order)) else frozenset(among)
        evaluated[id(q), prog.source, xs] += 1
        return real(q, prog, among)

    monkeypatch.setattr(varieties, "check_identity", counting)
    for q in (z4, z6, s3, d8, q5, cc6, m12):
        verify_theorems(q)
    assert evaluated
    assert [key for key, times in evaluated.items() if times > 1] == []


# Laws whose verdict on a random loop often turns on which x they range over.
_HOLDS_PROGRAMS = (*get_entry("lip").equations, *get_entry("moufang").equations,
                   *varieties._IDENTITIES["buchsteiner_square_translations"])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_context_holds_matches_oracle_and_decides_once(data):
    q = data.draw(loops())
    n = q.order
    # x ranges over a list with a repeat (n entries or more, so not the
    # whole loop unless its set is), over a permutation of the loop, or
    # over nothing.
    with_repeat = st.lists(st.integers(0, n - 1), min_size=max(n - 1, 1), max_size=n).flatmap(
        lambda xs: st.sampled_from(xs).map(lambda x: [*xs, x]))
    among = data.draw(st.one_of(with_repeat, st.permutations(range(n)), st.just([])))
    calls = []
    real = varieties.check_identity

    def counting(q, prog, among=None):
        calls.append(prog.source)
        return real(q, prog, among)

    ctx = varieties.Context(q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(varieties, "check_identity", counting)
        for prog in _HOLDS_PROGRAMS:
            expected = all(holds_at(q, prog, (a, *rest))
                           for a in among for rest in product(range(n), repeat=prog.nvars - 1))
            assert ctx.holds((prog,), among) == expected, (prog.source, among)
        assert len(calls) == len(_HOLDS_PROGRAMS)
        assert ctx.holds(_HOLDS_PROGRAMS, among) == all(
            ctx.holds((prog,), among) for prog in _HOLDS_PROGRAMS)
        if set(among) == set(range(n)):
            ctx.holds(_HOLDS_PROGRAMS)
        assert len(calls) == len(_HOLDS_PROGRAMS)


_VERDICTS = {check_id: verdict for check_id, _applies, verdict in varieties._SUITE}
_CONVERTED = (*theorem_oracle.ROUTES, "lc_tenway_agreement", "c_fiveway_agreement")


def _translation_verdicts(q):
    """The converted rows' verdicts, whether or not the rows apply, and the
    identities that stand for the translation conditions of the ten-way
    and five-way agreements."""
    ctx = varieties.Context(q)
    lc = check_variety(q, "lc")
    return (
        {check_id: _VERDICTS[check_id](ctx) for check_id in theorem_oracle.ROUTES},
        (lc, lc, check_identity(q, varieties._IDENTITIES["lc_tenway_agreement"][2])),
        check_identity(q, varieties._IDENTITIES["c_fiveway_agreement"][0]),
    )


def _oracle_verdicts(q):
    return (
        {check_id: route(q) for check_id, route in theorem_oracle.ROUTES.items()},
        theorem_oracle.lc_translation_conditions(q),
        theorem_oracle.c_autotopism_condition(q),
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_translation_identities_match_permutation_routes(cc6, m12, q5, data):
    isotopes = st.sampled_from([cc6, m12, q5]).flatmap(
        lambda q: st.builds(principal_isotope, st.just(q),
                            st.integers(0, q.order - 1), st.integers(0, q.order - 1)))
    q = data.draw(st.one_of(loops(), isotopes))
    assert _translation_verdicts(q) == _oracle_verdicts(q)


def test_translation_rows_build_no_translation(cc6, m12, monkeypatch):
    cases = [(q, dict(verify_theorems(q).rows)) for q in (cc6, m12)]

    def no_translation(self, x):
        raise AssertionError("a translation was built")

    monkeypatch.setattr(LoopTable, "L", no_translation)
    monkeypatch.setattr(LoopTable, "R", no_translation)
    for q, statuses in cases:
        ctx = varieties.Context(q)
        for check_id, applies, verdict in varieties._SUITE:
            if check_id in _CONVERTED:
                holds = verdict(ctx)
                assert statuses[check_id] == (
                    ("PASS" if holds else "FAIL") if applies(ctx) else "N/A"), check_id


def test_mlt_normality_sifts_agree_with_conjugating_generators(
        corpus5, classes6, z4, z6, s3, d8, q5, cc6, m12):
    # Every loop of corpus5 and the named loops has both sides normal; the
    # order-6 classes bring the loops where a side is not.
    verdicts = Counter()
    for _id, q in corpus5 + classes6 + [(None, q) for q in (z4, z6, s3, d8, q5, cc6, m12)]:
        ctx = varieties.Context(q)
        ls = [q.L(x) for x in range(q.order)]
        rs = [q.R(x) for x in range(q.order)]
        for side, build, own in (("left", perms.mlt_left, ls), ("right", perms.mlt_right, rs)):
            normal = is_normal_subgroup(build(q), own, ls + rs)
            assert ctx.normal_in_mlt(side) == normal
            verdicts[normal] += 1
    assert verdicts[True] and verdicts[False]


def test_mlt_normality_sifts_only_kept_generators(cc6, m12, monkeypatch):
    # Conjugating every translation of a side by every translation of the
    # other takes n^2 sifts: 36, 144 and 256.
    contains = perms.PermGroup.__contains__
    sifts = [0]

    def counting(group, p):
        sifts[0] += 1
        return contains(group, p)

    monkeypatch.setattr(perms.PermGroup, "__contains__", counting)
    for q, expected in ((cc6, 4), (m12, 49), (cyclic(16), 1)):
        ctx = varieties.Context(q)
        for side in ("left", "right"):
            sifts[0] = 0
            assert ctx.normal_in_mlt(side)
            assert sifts[0] == expected, side


def test_theorem_suite_builds_the_one_sided_chains_once(m12, cc6, z6, classes6, chain_builds):
    # Mlt_left and Mlt_right for the normality rows, and on an Osborn loop
    # the closure of the commutators [L(y), R(x)]: Inn_left and Inn_right
    # are read off the first two.
    for q in (m12, cc6, z6):
        chain_builds[0] = 0
        verify_theorems(q)
        assert chain_builds[0] == 3
    q = next(q for _id, q in classes6 if not varieties.Context(q).flag("osborn"))
    chain_builds[0] = 0
    verify_theorems(q)
    assert chain_builds[0] == 2


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


def test_order16_report_decides_the_center_once(holders_runs):
    # The centers of D16, D8 and Z2^2 take 15 + 2, 7 + 2 and 3 + 6 runs, and
    # Z16's takes 15 + 2 * 15: the nilpotency class reuses the first center
    # and its quotient.
    for q, runs in ((dihedral(8), 17 + 9 + 9), (cyclic(16), 15 + 2 * 15)):
        holders_runs[0] = 0
        order16_report(q)
        assert holders_runs[0] == runs


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
