"""Exact arithmetic of the infinite integer-pair loop."""

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
from loopkit.errors import ParseError, WitnessNotFoundInWindow


def in_subloop(e):
    """Membership in S = {first coordinate 0}."""
    return e.a == 0


P2 = BKParams(2)
P3 = BKParams(3)
P5 = BKParams(5)

elements = st.builds(
    BKElement,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60),
)
params_any = st.sampled_from([P2, P3, P5])


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


@given(p=params_any, u=elements, v=elements)
@settings(max_examples=200, deadline=None)
def test_multiplication_is_commutative(p, u, v):
    # The base loop is the integers under addition, so the doubled loop
    # is commutative too.
    assert bk_mul(p, u, v) == bk_mul(p, v, u)


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


def _witness_or_none(find, params):
    try:
        return find(params)
    except WitnessNotFoundInWindow:
        return None


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    window_a=st.integers(1, 4),
    window_x=st.integers(1, 12),
)
@settings(max_examples=40, deadline=None)
def test_witness_matches_full_scan(p, window_a, window_x):
    params = BKParams(p, window_a=window_a, window_x=window_x)
    assert _witness_or_none(nonnormal_witness, params) == _witness_or_none(
        bk_oracle.nonnormal_witness, params
    )


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    x=elements,
    y=elements,
    w=st.integers(-200, 200),
)
@settings(max_examples=300, deadline=None)
def test_preimage_first_coordinate_has_period_p_squared(p, x, y, w):
    # Why the witness scan may stop after p**2 values of w.
    params = BKParams(p)
    xy = bk_mul(params, x, y)

    def preimage_a(w):
        target = bk_mul(params, xy, BKElement(0, w))
        return bk_ldiv(params, y, bk_ldiv(params, x, target)).a

    assert preimage_a(w) == preimage_a(w + p * p)


def test_witness_scan_divides_little(monkeypatch):
    # The full scan divides 227,939 times for p=2; one period of w and
    # pairs taken in order until the first witness need 4,541.
    calls = [0]
    ldiv = loopkit.bk.bk_ldiv

    def counting(*args):
        calls[0] += 1
        return ldiv(*args)

    monkeypatch.setattr(loopkit.bk, "bk_ldiv", counting)
    assert nonnormal_witness(P2)[0] == BKElement(1, 0)
    assert calls[0] <= 10_000


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
        assert report.checks > 10000
        head = report.format().splitlines()[0]
        assert f"p={params.p}" in head
        assert "violations=0" in head
