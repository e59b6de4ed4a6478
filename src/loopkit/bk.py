"""An infinite loop on ZxZ, built from a prime, with exact arithmetic.

For a prime p the first coordinates carry the operation ``oplus`` and the
second coordinates live in (Z, +), partitioned into residue classes mod p
with bijections pi_i(w) = p*w + i.  The resulting loop M has unit (0, 0)
and contains S = {(0, t)} as a subloop that every standard inner
generator maps INTO itself while some standard generator fails to map it
ONTO itself, so S is not normal.  All operations are exact integer
arithmetic; the loop is infinite and evaluated lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .errors import Inconsistent, ParseError, WitnessNotFoundInWindow

_INNER_KINDS = ("LL", "RR", "TR")


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class BKParams:
    """Prime and audit window: |a| up to window_a, |x| up to window_x."""

    p: int
    window_a: int = 0
    window_x: int = 100

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.window_a == 0:
            object.__setattr__(self, "window_a", self.p**3)
        if self.window_a < 1 or self.window_x < 1:
            raise ValueError("window bounds must be positive")


class BKElement(NamedTuple):
    a: int
    x: int


UNIT = BKElement(0, 0)


def parse_element(text):
    """Parse "(a,x)" with integer a, x."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(f"expected (a,x), got {text!r}")
    parts = s[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(f"expected two coordinates in {text!r}")
    try:
        return BKElement(int(parts[0].strip()), int(parts[1].strip()))
    except ValueError:
        raise ParseError(f"non-integer coordinate in {text!r}") from None


def format_element(e):
    return f"({e.a},{e.x})"


def oplus(p, a, b):
    """First-coordinate operation; floor division toward minus infinity."""
    if (a + b) % p == 0 and a % p != 0:
        return p * (a // (p * p) + b // (p * p))
    return a + b


def bk_mul(params, u, v):
    p = params.p
    a, b = u.a, v.a
    if (a + b) % p == 0 and a % p != 0:
        index = ((a + b - p) // p) % p
        return BKElement(oplus(p, a, b), p * (u.x + v.x) + index)
    return BKElement(a + b, u.x + v.x)


def bk_ldiv(params, u, w):
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
    if bk_mul(params, u, v) != w:
        raise Inconsistent(f"division failed: {u} \\ {w}")
    return v


def bk_rdiv(params, w, v):
    """The unique u with u * v = w; mirror of bk_ldiv."""
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


def standard_inner(params, kind, x, y, s):
    """Apply one standard inner-mapping generator to s."""
    if kind == "LL":
        xy = bk_mul(params, x, y)
        return bk_ldiv(params, xy, bk_mul(params, x, bk_mul(params, y, s)))
    if kind == "RR":
        yx = bk_mul(params, y, x)
        return bk_rdiv(params, bk_mul(params, bk_mul(params, s, y), x), yx)
    if kind == "TR":
        return bk_ldiv(params, x, bk_mul(params, s, x))
    raise ValueError(f"unknown standard inner kind {kind!r}")


# ---------------------------------------------------------------------------
# witness


def _element_key(e):
    return (abs(e.a), e.a < 0, abs(e.x), e.x < 0)


def _signed_range(bound):
    yield 0
    for m in range(1, bound + 1):
        yield m
        yield -m


def _pairs(bound_a, bound_t):
    """Every pair of elements with |a| <= bound_a and |x| <= bound_t, in
    the order (|x.a| + |y.a|, _element_key(x), _element_key(y)), generated
    one at a time.  The key starts with |a| and differs for every element,
    so grouping by |a| and walking the groups gives that order exactly."""
    groups = [
        sorted((BKElement(a, t) for a in {m, -m} for t in _signed_range(bound_t)),
               key=_element_key)
        for m in range(bound_a + 1)
    ]
    for total in range(2 * bound_a + 1):
        for mx in range(max(0, total - bound_a), min(total, bound_a) + 1):
            ys = groups[total - mx]
            for x in groups[mx]:
                for y in ys:
                    yield x, y


def nonnormal_witness(params):
    r"""Find (x, y, s0, preimage) certifying that S is not normal.

    The generator phi = L(xy)^-1 L(x) L(y) maps S into S, so if some
    s0 in S has phi-preimage outside S then phi(S) is a proper subset of
    S and S cannot be normal.  The scan over the window is fixed and
    deterministic: pairs ordered by |x.a| + |y.a|, then by the element
    key of x, then by that of y; s0 = (0, w) with w in 0, 1, -1, 2, -2, ...

    Only the first min(p**2, 2*window_x + 1) values of w are tried, and
    that is exact.  xy * (0, w) never takes bk_mul's special branch, so it
    is (xy.a, xy.x + w).  The first coordinate of bk_ldiv(u, t) depends on
    t.x only mod p, and its second is t.x - u.x or t.x // p - u.x.  So the
    first coordinate of the preimage y\(x\(xy * s0)) depends on w only
    mod p**2.  The first p**2 values of w are consecutive integers and
    meet every residue, so they hold the first witness w of every pair.

    Raises WitnessNotFoundInWindow if the window holds no witness.
    """
    bound_a = params.window_a
    bound_x = params.window_x
    p2 = params.p * params.p
    ws = list(islice(_signed_range(bound_x), p2))
    for x, y in _pairs(bound_a, min(bound_x, p2)):
        xy = bk_mul(params, x, y)
        for w in ws:
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


# ---------------------------------------------------------------------------
# windowed audits


@dataclass
class AuditReport:
    params: BKParams
    checks: int
    violations: list

    @property
    def ok(self):
        return not self.violations

    def format(self):
        head = (
            f"p={self.params.p} |a|<={self.params.window_a} "
            f"|x|<={self.params.window_x} checks={self.checks} "
            f"violations={len(self.violations)}"
        )
        return "\n".join([head] + self.violations)


def window_audit(params):
    """Audit the construction over its window; violations must be empty.

    Parts: (a) division round-trips, (b) the class of an element is its
    left and its right coset of S, (c) standard generator images of S
    stay in S, plus the proof's parametrized solution set for the
    special branch, (d) commutativity.  A dense core is checked
    exhaustively; the full |a| range is covered by structured probes
    with rotating small second coordinates.
    """
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
