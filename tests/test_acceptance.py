"""Acceptance gate.

Each criterion below prints exactly one pass/fail line (bypassing
capture, so it is visible in any pytest run) and asserts both the
result and its runtime bound.
"""

import os
import time

from loopkit import bk, perms, structure, varieties
from loopkit.core import load_path
from loopkit.search import (
    SearchSpec,
    canonical_key,
    count_reduced,
    count_up_to_isomorphism,
    minimal_order,
    search,
)
from loopkit.varieties import verify_theorems
from nuclei_oracle import nuclei_from_inner_mappings
from perms_oracle import standard_generators
from search_oracle import enumerate_reduced_naive


def _report(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_counting_oracle(capsys):
    start = time.monotonic()
    iso_counts = [count_up_to_isomorphism(n) for n in range(1, 6)]
    naive = {n: enumerate_reduced_naive(n) for n in range(1, 6)}
    naive_counts = [len(naive[n]) for n in range(1, 6)]
    engine_counts = [count_reduced(n) for n in range(1, 6)]
    class_counts = [len({canonical_key(q) for q in naive[n]}) for n in range(1, 6)]
    elapsed = time.monotonic() - start
    ok = (
        iso_counts == [1, 1, 1, 2, 6]
        and naive_counts == [1, 1, 1, 4, 56]
        and engine_counts == naive_counts
        and class_counts == iso_counts
        and elapsed < 5.0
    )
    _report(
        capsys,
        f"criterion 1 counting oracle: {'PASS' if ok else 'FAIL'} "
        f"(iso={iso_counts}, reduced={engine_counts}, {elapsed:.1f}s)",
    )
    assert iso_counts == [1, 1, 1, 2, 6]
    assert naive_counts == [1, 1, 1, 4, 56]
    assert engine_counts == naive_counts
    assert class_counts == iso_counts
    assert elapsed < 5.0


def test_criterion_2_osborn_search_scaled(capsys):
    start = time.monotonic()
    counts = {}
    for order in range(1, 8):
        spec = SearchSpec(
            order=order,
            required=("osborn",),
            forbidden=("cc", "moufang"),
            mode="count",
        )
        res = search(spec)
        counts[order] = res.count
    # Propagation decides the nodes; a faster evaluator must not move them.
    visited7 = res.visited
    elapsed = time.monotonic() - start
    ok = all(c == 0 for c in counts.values()) and visited7 == 18871 and elapsed <= 600.0
    _report(
        capsys,
        f"criterion 2 scaled osborn search: {'PASS' if ok else 'FAIL'} "
        f"(orders 1-7 all zero: {all(c == 0 for c in counts.values())}, "
        f"order-7 nodes: {visited7}, {elapsed:.1f}s)",
    )
    assert counts == {n: 0 for n in range(1, 8)}
    assert visited7 == 18871
    assert elapsed <= 600.0


def test_criterion_3_smallest_nonassociative_cc(capsys):
    start = time.monotonic()
    result = minimal_order(("cc",), ("associative",), max_order=6)
    small = {
        n: search(
            SearchSpec(order=n, required=("cc",), forbidden=("associative",), mode="count")
        ).count
        for n in range(2, 6)
    }
    elapsed = time.monotonic() - start
    order, witness = result if result else (None, None)
    witness_ok = (
        witness is not None
        and varieties.check_variety(witness, "cc")
        and not varieties.check_variety(witness, "associative")
    )
    ok = (
        order == 6
        and witness_ok
        and all(c == 0 for c in small.values())
        and elapsed <= 60.0
    )
    _report(
        capsys,
        f"criterion 3 smallest nonassociative cc: {'PASS' if ok else 'FAIL'} "
        f"(order={order}, none below: {all(c == 0 for c in small.values())}, {elapsed:.1f}s)",
    )
    assert order == 6
    assert witness_ok
    assert small == {n: 0 for n in range(2, 6)}
    assert elapsed <= 60.0


REQUIRED_CHECKS = {
    "lc_tenway_agreement",
    "osborn_eightway_agreement",
    "osborn_closed_under_opposite",
    "moufang_implies_osborn",
    "cc_implies_osborn",
    "vd_implies_osborn",
    "osborn_moufang_by_single_extra_property",
    "osborn_aaip_implies_moufang",
    "gen_moufang_iff_wip_osborn",
    "lc_implies_lip_and_normal_left_nucleus",
    "osborn_nuclei_coincide_and_normal",
    "osborn_inner_groups_coincide",
    "osborn_mlt_one_sided_normal",
    "osborn_buchsteiner_nuclear_squares_two_of_three",
    "osborn_buchsteiner_square_law_two_of_three",
    "gen_moufang_wipcc_nuclear_squares_two_of_three",
    "osborn_cip_implies_commutative_moufang",
    "osborn_a_loop_factor_commutative_moufang",
    "osborn_inner_pseudo_companions",
    "osborn_inverse_translation_automorphisms",
    "buchsteiner_square_translations",
    "buchsteiner_right_square_translation",
    "nuclear_square_left_translation",
    "osborn_nuclear_square_translation",
}


def test_criterion_4_theorem_suite(capsys):
    start = time.monotonic()
    loops = []
    for n in range(1, 7):
        res = search(SearchSpec(order=n, mode="collect", isomorphs="up_to_iso"))
        loops.extend((f"order{n}-{i}", q) for i, q in enumerate(res.found))
    cc_result = minimal_order(("cc",), ("associative",), max_order=6)
    assert cc_result is not None
    loops.append(("cc6-witness", cc_result[1]))
    fail_rows = []
    seen_checks = set()
    for loop_id, q in loops:
        report = verify_theorems(q, loop_id=loop_id)
        seen_checks.update(check_id for check_id, _status in report.rows)
        fail_rows.extend((loop_id, c) for c in report.failures())
    elapsed = time.monotonic() - start
    missing = REQUIRED_CHECKS - seen_checks
    ok = not fail_rows and not missing and elapsed <= 900.0
    _report(
        capsys,
        f"criterion 4 theorem suite: {'PASS' if ok else 'FAIL'} "
        f"({len(loops)} loops, {len(fail_rows)} failing rows, {elapsed:.1f}s)",
    )
    assert fail_rows == []
    assert missing == set()
    assert elapsed <= 900.0


def test_criterion_5_infinite_loop_construction(capsys):
    start = time.monotonic()
    audits = {p: bk.window_audit(bk.BKParams(p)) for p in (2, 3, 5)}
    witness = bk.nonnormal_witness(bk.BKParams(2))
    elapsed = time.monotonic() - start
    expected = (
        bk.BKElement(1, 0),
        bk.BKElement(1, 0),
        bk.BKElement(0, 1),
        bk.BKElement(2, 0),
    )
    x, y, s0, pre = witness
    certified = bk.standard_inner(bk.BKParams(2), "LL", x, y, pre) == s0
    audits_ok = all(r.ok for r in audits.values())
    ok = audits_ok and witness == expected and certified and elapsed <= 30.0
    _report(
        capsys,
        f"criterion 5 integer-pair loop: {'PASS' if ok else 'FAIL'} "
        f"(audits clean p=2,3,5: {audits_ok}, witness pinned: {witness == expected}, "
        f"{elapsed:.1f}s)",
    )
    for p, report in audits.items():
        assert report.ok, f"p={p}: {report.violations[:3]}"
    assert witness == expected
    assert certified
    assert elapsed <= 30.0


def test_criterion_6_cross_path_consistency(capsys):
    start = time.monotonic()
    loops = 0
    mismatches = 0
    for n in range(1, 7):
        for q in search(SearchSpec(order=n, mode="collect")).found:
            loops += 1
            scans = (
                structure.left_nucleus(q),
                structure.middle_nucleus(q),
                structure.right_nucleus(q),
            )
            if scans != nuclei_from_inner_mappings(q):
                mismatches += 1
            stabilizer = perms.inn(q)
            generated = perms.closure([p for _tag, p in standard_generators(q)])
            if stabilizer.elements != generated.elements:
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and loops == 1 + 1 + 1 + 4 + 56 + 9408
    _report(
        capsys,
        f"criterion 6 cross-path consistency: {'PASS' if ok else 'FAIL'} "
        f"({loops} loops, {mismatches} mismatches, {elapsed:.1f}s)",
    )
    assert loops == 9471
    assert mismatches == 0


def test_criterion_7_order16_conditional(capsys):
    path = os.environ.get("LOOPKIT_OSBORN16", "")
    if not path or not os.path.exists(path):
        _report(
            capsys,
            "criterion 7 order-16 properties: N/A "
            "(no table supplied; set LOOPKIT_OSBORN16 to a .loop path)",
        )
        return
    q = load_path(path)
    assert q.order == 16
    assert varieties.is_proper_osborn(q)
    report = varieties.order16_report(q, loop_id="supplied")
    statuses = dict(report.rows)
    flag = statuses.get("fourth_power_translations")
    ok = report.failures() == []
    _report(
        capsys,
        f"criterion 7 order-16 properties: {'PASS' if ok else 'FAIL'} "
        f"(fourth power translations: {flag})",
    )
    assert report.failures() == []
