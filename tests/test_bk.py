"""Exact arithmetic of the infinite integer-pair loop."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bk_oracle
import loopkit.bk
from loopkit.bk import (
    UNIT,
    AuditReport,
    BKElement,
    BKParams,
    bk_ldiv,
    bk_mul,
    bk_rdiv,
    format_element,
    nonnormal_witness,
    oplus,
    parse_element,
    standard_inner,
    window_audit,
)
from loopkit.errors import ParseError


def in_subloop(e):
    """Membership in S = {first coordinate 0}."""
    return e.a == 0


P2 = BKParams(2)
P3 = BKParams(3)
P5 = BKParams(5)
PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

elements = st.builds(
    BKElement,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60),
)
params_any = st.sampled_from([P2, P3, P5])
coordinates = st.integers(min_value=-10**6, max_value=10**6)


@st.composite
def first_coordinates(draw, primes=(2, 3, 5, 7)):
    """(params, a, b) with p in ``primes``.  On half the draws p divides
    a + b and not a: the special branch of bk_mul."""
    params = BKParams(draw(st.sampled_from(primes)))
    p = params.p
    a, b = draw(coordinates), draw(coordinates)
    if draw(st.booleans()):
        a += draw(st.integers(1, p - 1)) - a % p
        b -= (a + b) % p
    return params, a, b


def test_params_validate():
    assert BKParams(2).window_a == 8
    assert BKParams(3).window_a == 27
    assert BKParams(7, window_a=5, window_x=9).window_x == 9
    with pytest.raises(ValueError):
        BKParams(4)
    with pytest.raises(ValueError):
        BKParams(2, window_a=-1)


def test_parse_and_format():
    assert parse_element("(1,3)") == BKElement(1, 3)
    assert parse_element(" ( -2 , 14 ) ") == BKElement(-2, 14)
    assert format_element(BKElement(0, 14)) == "(0,14)"
    for bad in ("1,3", "(1;3)", "(1,3", "(a,3)", "()"):
        with pytest.raises(ParseError):
            parse_element(bad)


def test_unit_is_neutral():
    for e in (BKElement(1, 3), BKElement(-5, 2), BKElement(4, 0)):
        for p in (P2, P3, P5):
            assert bk_mul(p, UNIT, e) == e
            assert bk_mul(p, e, UNIT) == e


def test_worked_products():
    assert bk_mul(P2, BKElement(1, 3), BKElement(1, 4)) == BKElement(0, 14)
    # Ordinary branch: residues do not cancel.
    assert bk_mul(P2, BKElement(1, 0), BKElement(2, 0)) == BKElement(3, 0)
    # Special branch at the witness: (1,0)*(3,0) lands in the subloop.
    assert bk_mul(P2, BKElement(1, 0), BKElement(3, 0)) == BKElement(0, 1)
    assert bk_mul(P2, BKElement(1, 0), BKElement(1, 0)) == BKElement(0, 0)


def test_oplus_special_case_examples():
    # p | a+b with p not dividing a triggers the folded sum.
    assert oplus(2, 1, 1) == 0
    assert oplus(2, 1, 3) == 0
    assert oplus(2, 5, 3) == 2 * (1 + 0)
    assert oplus(3, 1, 2) == 0
    # Otherwise plain addition.
    assert oplus(2, 2, 2) == 4
    assert oplus(3, 1, 1) == 2


@given(p=params_any, u=elements, v=elements)
@settings(max_examples=300, deadline=None)
def test_division_round_trips(p, u, v):
    w = bk_mul(p, u, v)
    assert bk_ldiv(p, u, w) == v
    assert bk_rdiv(p, w, v) == u


@given(p=params_any, u=elements, w=elements)
@settings(max_examples=300, deadline=None)
def test_divisions_solve_equations(p, u, w):
    assert bk_mul(p, u, bk_ldiv(p, u, w)) == w
    assert bk_mul(p, bk_rdiv(p, w, u), u) == w


@given(first_coordinates(), coordinates, coordinates)
@settings(max_examples=300, deadline=None)
def test_multiplication_is_commutative(pab, x, y):
    # The base loop is the integers under addition, so the doubled loop
    # is commutative too; bk_rdiv relies on it.
    params, a, b = pab
    u, v = BKElement(a, x), BKElement(b, y)
    assert bk_mul(params, u, v) == bk_mul(params, v, u)


@given(first_coordinates(), coordinates, coordinates)
@settings(max_examples=300, deadline=None)
def test_rdiv_matches_closed_form_on_both_branches(pab, x, y):
    # On the special draws w.a = a + b is divisible by p and v.a = a is
    # not, which is the closed form's special branch.
    params, a, b = pab
    w, v = BKElement(a + b, x), BKElement(a, y)
    assert bk_rdiv(params, w, v) == bk_oracle.rdiv_closed_form(params, w, v)


@given(first_coordinates(primes=(2, 3, 5, 7, 11)), coordinates, coordinates)
@settings(max_examples=300, deadline=None)
def test_element_arithmetic_matches_reference(pab, x, y):
    # On the special draws u * v, u \ w and w / v all take the special
    # branch: p divides a + b and divides neither a nor b.
    params, a, b = pab
    u, v, w = BKElement(a, x), BKElement(b, y), BKElement(a + b, y)
    pairs = [
        (bk_mul(params, u, v), bk_oracle.bk_mul_reference(params, u, v)),
        (bk_ldiv(params, u, w), bk_oracle.bk_ldiv_reference(params, u, w)),
        (bk_rdiv(params, w, v), bk_oracle.bk_ldiv_reference(params, v, w)),
    ]
    for got, want in pairs:
        assert got == want
        assert type(got) is BKElement
        assert repr(got) == f"BKElement(a={want.a}, x={want.x})"


def test_multiplication_is_not_associative():
    triples = [
        (BKElement(a, 0), BKElement(b, 0), BKElement(c, 0))
        for a in range(-4, 5)
        for b in range(-4, 5)
        for c in range(-4, 5)
    ]
    assert any(
        bk_mul(P2, x, bk_mul(P2, y, z)) != bk_mul(P2, bk_mul(P2, x, y), z)
        for x, y, z in triples
    )


@given(p=params_any, s=st.integers(-40, 40), t=st.integers(-40, 40))
@settings(max_examples=200, deadline=None)
def test_subloop_closed_under_all_operations(p, s, t):
    u, v = BKElement(0, s), BKElement(0, t)
    assert in_subloop(bk_mul(p, u, v))
    assert in_subloop(bk_ldiv(p, u, v))
    assert in_subloop(bk_rdiv(p, u, v))


@given(
    p=params_any,
    x=elements,
    y=elements,
    s=st.integers(-30, 30),
    kind=st.sampled_from(["LL", "RR", "TR"]),
)
@settings(max_examples=300, deadline=None)
def test_inner_generators_preserve_subloop(p, x, y, s, kind):
    image = standard_inner(p, kind, x, y, BKElement(0, s))
    assert in_subloop(image)


def test_inner_rejects_unknown_kind():
    with pytest.raises(ValueError):
        standard_inner(P2, "XX", UNIT, UNIT, UNIT)


def test_witness_p2_pinned():
    x, y, s0, pre = nonnormal_witness(P2)
    assert (x, y, s0, pre) == (
        BKElement(1, 0),
        BKElement(1, 0),
        BKElement(0, 1),
        BKElement(2, 0),
    )
    # Certificate replay: the inner mapping sends the preimage to s0.
    assert standard_inner(P2, "LL", x, y, pre) == s0
    assert not in_subloop(pre)
    assert in_subloop(s0)


def test_witness_p3_pinned():
    x, y, s0, pre = nonnormal_witness(P3)
    assert (x, y, s0, pre) == (
        BKElement(1, 0),
        BKElement(-1, 0),
        BKElement(0, 1),
        BKElement(-6, 1),
    )
    assert standard_inner(P3, "LL", x, y, pre) == s0


def test_witness_p5_small_window():
    params = BKParams(5, window_a=3, window_x=5)
    x, y, s0, pre = nonnormal_witness(params)
    assert (x, y, s0, pre) == (
        BKElement(1, 0),
        BKElement(-1, 0),
        BKElement(0, 1),
        BKElement(-20, 1),
    )
    assert standard_inner(params, "LL", x, y, pre) == s0


@given(window_a=st.integers(1, 3), window_x=st.integers(1, 8))
@settings(max_examples=10, deadline=None)
def test_witness_matches_full_scan(window_a, window_x):
    for p in PRIMES_TO_31:
        params = BKParams(p, window_a=window_a, window_x=window_x)
        assert nonnormal_witness(params) == bk_oracle.nonnormal_witness(params)


def test_witness_closed_form_on_default_window():
    for p in PRIMES_TO_31:
        params = BKParams(p)
        x, y, s0, pre = nonnormal_witness(params)
        if p == 2:
            expected = (BKElement(1, 0), BKElement(1, 0), BKElement(0, 1), BKElement(2, 0))
        else:
            expected = (BKElement(1, 0), BKElement(-1, 0), BKElement(0, 1),
                        BKElement(-p * (p - 1), 1))
        assert (x, y, s0, pre) == expected
        assert standard_inner(params, "LL", x, y, pre) == s0
        assert not in_subloop(pre)


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    x=elements,
    y=elements,
    w=st.integers(-200, 200),
)
@settings(max_examples=300, deadline=None)
def test_preimage_first_coordinate_has_period_p_squared(p, x, y, w):
    # The first coordinate of the preimage depends on w only mod p**2.
    params = BKParams(p)
    xy = bk_mul(params, x, y)

    def preimage_a(w):
        target = bk_mul(params, xy, BKElement(0, w))
        return bk_ldiv(params, y, bk_ldiv(params, x, target)).a

    assert preimage_a(w) == preimage_a(w + p * p)


def test_witness_scan_divides_little(monkeypatch):
    # The witness is stated in closed form; only its replay through
    # standard_inner divides, once.
    calls = [0]
    ldiv = loopkit.bk.bk_ldiv

    def counting(*args):
        calls[0] += 1
        return ldiv(*args)

    monkeypatch.setattr(loopkit.bk, "bk_ldiv", counting)
    assert nonnormal_witness(P2)[0] == BKElement(1, 0)
    assert calls[0] == 1


def test_witness_proves_strict_containment():
    # The certified preimage lies outside S while its image under the
    # inner mapping is inside: the subloop is not normal.
    x, y, s0, pre = nonnormal_witness(P2)
    assert not in_subloop(pre)
    assert in_subloop(standard_inner(P2, "LL", x, y, pre))


def test_window_audits_are_clean():
    for params in (P2, P3):
        report = window_audit(params)
        assert isinstance(report, AuditReport)
        assert report.ok
        assert report.violations == []
        assert report.checks == {2: 62639, 3: 117806}[params.p]
        head = report.format().splitlines()[0]
        assert f"p={params.p}" in head
        assert "violations=0" in head


def _audit_outcome(audit, params):
    """(exception type, None) if the audit raises, else (None, violations
    as a multiset)."""
    try:
        report = audit(params)
    except Exception as exc:
        return type(exc), None
    return None, Counter(report.violations)


def _standard_inner_fault(inner):
    # TR images of S leave S whenever x.a is odd.
    def faulty(params, kind, x, y, s):
        image = inner(params, kind, x, y, s)
        return BKElement(image.a + 1, image.x) if kind == "TR" and x.a % 2 else image
    return faulty


def _rdiv_fault(rdiv):
    def faulty(params, w, v):
        u = rdiv(params, w, v)
        return BKElement(u.a, u.x + 1) if v.a == 1 else u
    return faulty


def _ldiv_fault(ldiv):
    # Asymmetric in u and w, so it shows in one order of a pair only.
    def faulty(params, u, w):
        v = ldiv(params, u, w)
        return BKElement(v.a, v.x - 1) if u.a == 2 and w.x > 0 else v
    return faulty


def _mul_fault(mul):
    def faulty(params, u, v):
        w = mul(params, u, v)
        return BKElement(w.a, w.x + 1) if u.a == 1 and v.a == -1 else w
    return faulty


@pytest.mark.parametrize(
    "name, fault, same_multiset",
    [
        ("standard_inner", _standard_inner_fault, True),
        ("bk_rdiv", _rdiv_fault, False),
        # bk_rdiv divides through bk_ldiv, so both audits see the same
        # faulty quotients and must list the same violations.
        ("bk_ldiv", _ldiv_fault, True),
        ("bk_mul", _mul_fault, False),
    ],
)
def test_audit_reports_injected_faults(monkeypatch, name, fault, same_multiset):
    monkeypatch.setattr(loopkit.bk, name, fault(getattr(loopkit.bk, name)))
    raised, violations = _audit_outcome(window_audit, P2)
    ref_raised, ref_violations = _audit_outcome(bk_oracle.window_audit_reference, P2)
    assert raised is ref_raised
    if raised is None:
        assert violations and ref_violations
        if same_multiset:
            assert violations == ref_violations
