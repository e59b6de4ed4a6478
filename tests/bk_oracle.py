"""References for the integer-pair loop.

The full witness scan is the reference that the closed-form
``loopkit.bk.nonnormal_witness`` is tested against: every pair in the
window, sorted up front, and every second coordinate w of s0 = (0, w) in
the window.  ``rdiv_closed_form`` solves u * v = w directly, the mirror of
``loopkit.bk.bk_ldiv``, and is the reference for ``bk_rdiv``, which
divides on the other side because the loop is commutative.

``bk_mul_reference``, ``bk_ldiv_reference`` and ``window_audit_reference``
are the element operations and the window audit as first written, before
elements were built without the NamedTuple constructor and before the
audit shared each core product and quotient between a pair's two orders."""

from loopkit import bk
from loopkit.bk import (
    _INNER_KINDS,
    AuditReport,
    BKElement,
    bk_ldiv,
    bk_mul,
    oplus,
    standard_inner,
)
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


def bk_mul_reference(params, u, v):
    """bk_mul as first written, building elements with the NamedTuple
    constructor."""
    p = params.p
    a, b = u.a, v.a
    if (a + b) % p == 0 and a % p != 0:
        index = ((a + b - p) // p) % p
        return BKElement(oplus(p, a, b), p * (u.x + v.x) + index)
    return BKElement(a + b, u.x + v.x)


def bk_ldiv_reference(params, u, w):
    """The unique v with u * v = w, computed in closed form.

    The special branch solves the residue conditions directly: the first
    coordinate of v is fixed modulo p and in its p**2 "digit" by the
    target, and the middle digit is pinned by matching the partition
    index to the target's residue class.  The result is always replayed
    through bk_mul; a mismatch would be an implementation bug and raises
    Inconsistent.
    """
    p = params.p
    a, c = u.a, w.a
    if c % p != 0 or a % p == 0:
        v = BKElement(c - a, w.x - u.x)
    else:
        p2 = p * p
        a2, ra = divmod(u.a, p2)
        low = (-a) % p
        s = (ra + low) // p
        index = w.x % p
        j = (index + 1 - s) % p
        b = (c // p - a2) * p2 + p * j + low
        v = BKElement(b, w.x // p - u.x)
    if bk_mul_reference(params, u, v) != w:
        raise Inconsistent(f"division failed: {u} \\ {w}")
    return v


def window_audit_reference(params):
    """The audit as first written: each ordered core pair is checked on
    its own, and each product and quotient is computed where a check
    needs it.  The element operations are read from ``loopkit.bk`` on
    each call, so a fault patched into that module reaches this audit too.
    """
    bk_mul, bk_ldiv, bk_rdiv = bk.bk_mul, bk.bk_ldiv, bk.bk_rdiv
    standard_inner, oplus = bk.standard_inner, bk.oplus
    p = params.p
    bound_a = params.window_a
    violations = []
    checks = [0]

    def note(kind, detail):
        violations.append(f"{kind}: {detail}")

    def round_trips(u, v):
        checks[0] += 4
        w = bk_mul(params, u, v)
        if bk_ldiv(params, u, w) != v:
            note("ldiv-of-product", f"{u} {v}")
        if bk_rdiv(params, w, v) != u:
            note("rdiv-of-product", f"{u} {v}")
        q = bk_ldiv(params, u, v)
        if bk_mul(params, u, q) != v:
            note("mul-of-ldiv", f"{u} {v}")
        r = bk_rdiv(params, u, v)
        if bk_mul(params, r, v) != u:
            note("mul-of-rdiv", f"{u} {v}")

    def coset_class(u, w):
        checks[0] += 2
        same = w.a == u.a
        if (bk_ldiv(params, u, w).a == 0) != same:
            note("left-coset", f"{u} {w}")
        if (bk_rdiv(params, w, u).a == 0) != same:
            note("right-coset", f"{u} {w}")

    def commutes(u, v):
        checks[0] += 1
        if bk_mul(params, u, v) != bk_mul(params, v, u):
            note("commutativity", f"{u} {v}")

    def generator_images(x, y, s0):
        for kind in _INNER_KINDS:
            checks[0] += 1
            if standard_inner(params, kind, x, y, s0).a != 0:
                note("generator-image", f"{kind} {x} {y} {s0}")

    # exhaustive core: all pairs with small coordinates
    core = [
        BKElement(a, t) for a in range(-p, p + 1) for t in range(-10, 11)
    ]
    for u in core:
        for v in core:
            round_trips(u, v)
            commutes(u, v)
    for u in core[:: max(1, len(core) // 40)]:
        for w in core[:: max(1, len(core) // 40)]:
            coset_class(u, w)
    for x in core[:: max(1, len(core) // 12)]:
        for y in core[:: max(1, len(core) // 12)]:
            generator_images(x, y, BKElement(0, (x.x + 2 * y.x) % 7 - 3))

    # structured probes across the full first-coordinate window
    for a in range(-bound_a, bound_a + 1):
        t = (a % 7) - 3
        s = (a * 3 + 1) % 11 - 5
        u = BKElement(a, t)
        partners = {-a, -a + 1, -a - 1, -a + p, -a - p, p - a, 1 - a, a + p}
        for b in partners:
            v = BKElement(b, s)
            round_trips(u, v)
            commutes(u, v)
            coset_class(u, bk_mul(params, u, v))
            coset_class(u, BKElement(u.a + 1, s))
            generator_images(u, v, BKElement(0, t + s))

    # the proof's parametrized set for the special branch: for p | c and
    # p not dividing a, the solutions b of  a (+) b = c  are exactly
    # {c*p - a + p*(a1 + k + 1) : 0 <= k < p}  with a1 the middle digit
    # of a, their partition indices covering all residues mod p, and
    # bk_ldiv must pick its first coordinate from that set.
    sample_a = [a for a in range(-bound_a, bound_a + 1) if a % p != 0]
    step = max(1, len(sample_a) // 50)
    for a in sample_a[::step]:
        a1 = (a % (p * p)) // p
        for m in (0, 1, -1, 2, a // p):
            c = p * m
            param_set = {c * p - a + p * (a1 + k + 1) for k in range(p)}
            checks[0] += 1
            bad = [b for b in param_set if oplus(p, a, b) != c]
            if bad:
                note("parametrized-set-membership", f"a={a} c={c} {bad}")
            indices = {((a + b - p) // p) % p for b in param_set}
            checks[0] += 1
            if indices != set(range(p)):
                note("parametrized-set-indices", f"a={a} c={c} {sorted(indices)}")
            chosen = {
                bk_ldiv(params, BKElement(a, 0), BKElement(c, z)).a for z in range(p)
            }
            checks[0] += 1
            if chosen != param_set:
                note("parametrized-set-choice", f"a={a} c={c} {sorted(chosen)}")

    return AuditReport(params, checks[0], violations)
