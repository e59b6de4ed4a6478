"""The full witness scan of ``loopkit.bk``, kept as the reference that
``nonnormal_witness`` is tested against: every pair in the window, sorted
up front, and every second coordinate w of s0 = (0, w) in the window."""

from loopkit.bk import (
    BKElement,
    _element_key,
    _signed_range,
    bk_ldiv,
    bk_mul,
    standard_inner,
)
from loopkit.errors import Inconsistent, WitnessNotFoundInWindow


def nonnormal_witness(params):
    """(x, y, s0, preimage): the first pair in the order (|x.a| + |y.a|,
    element key of x, element key of y) and the first w in
    0, 1, -1, 2, -2, ... whose preimage under L(xy)^-1 L(x) L(y) lies
    outside S."""
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
    raise WitnessNotFoundInWindow(
        f"no witness for p={params.p} with |a|<={bound_a}, |x|<={bound_x}"
    )
