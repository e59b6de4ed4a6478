"""References for the integer-pair loop.

The full witness scan is the reference that the closed-form
``loopkit.bk.nonnormal_witness`` is tested against: every pair in the
window, sorted up front, and every second coordinate w of s0 = (0, w) in
the window.  ``rdiv_closed_form`` solves u * v = w directly, the mirror of
``loopkit.bk.bk_ldiv``, and is the reference for ``bk_rdiv``, which
divides on the other side because the loop is commutative."""

from loopkit.bk import BKElement, bk_ldiv, bk_mul, standard_inner
from loopkit.errors import Inconsistent


def rdiv_closed_form(params, w, v):
    """The unique u with u * v = w, from the residue conditions on u."""
    p = params.p
    b, c = v.a, w.a
    if c % p != 0 or b % p == 0:
        u = BKElement(c - b, w.x - v.x)
    else:
        p2 = p * p
        b2, rb = divmod(v.a, p2)
        low = (-b) % p
        s = (rb + low) // p
        index = w.x % p
        j = (index + 1 - s) % p
        a = (c // p - b2) * p2 + p * j + low
        u = BKElement(a, w.x // p - v.x)
    if bk_mul(params, u, v) != w:
        raise Inconsistent(f"division failed: {w} / {v}")
    return u


def _element_key(e):
    return (abs(e.a), e.a < 0, abs(e.x), e.x < 0)


def _signed_range(bound):
    yield 0
    for m in range(1, bound + 1):
        yield m
        yield -m


def nonnormal_witness(params):
    """(x, y, s0, preimage): the first pair in the order (|x.a| + |y.a|,
    element key of x, element key of y) and the first w in
    0, 1, -1, 2, -2, ... whose preimage under L(xy)^-1 L(x) L(y) lies
    outside S; None if the window holds no such pair."""
    bound_a = params.window_a
    bound_x = params.window_x
    tb = min(bound_x, params.p * params.p)
    elems = [BKElement(a, t) for a in _signed_range(bound_a) for t in _signed_range(tb)]
    pairs = sorted(
        ((x, y) for x in elems for y in elems),
        key=lambda xy: (
            abs(xy[0].a) + abs(xy[1].a),
            _element_key(xy[0]),
            _element_key(xy[1]),
        ),
    )
    for x, y in pairs:
        xy = bk_mul(params, x, y)
        for w in _signed_range(bound_x):
            s0 = BKElement(0, w)
            target = bk_mul(params, xy, s0)
            u = bk_ldiv(params, y, bk_ldiv(params, x, target))
            if u.a != 0:
                if standard_inner(params, "LL", x, y, u) != s0:
                    raise Inconsistent("witness replay failed")
                return x, y, s0, u
    return None
