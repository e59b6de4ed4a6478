"""An infinite loop on ZxZ, built from a prime, with exact arithmetic.

For a prime p the first coordinates carry the operation ``oplus`` and the
second coordinates live in (Z, +), partitioned into residue classes mod p
with bijections pi_i(w) = p*w + i.  The resulting loop M has unit (0, 0)
and contains S = {(0, t)} as a subloop that every standard inner
generator maps INTO itself while some standard generator fails to map it
ONTO itself, so S is not normal.  All operations are exact integer
arithmetic; the loop is infinite and evaluated lazily.  ``window_audit``
checks the defining laws on the elements whose first coordinate a has
|a| <= p**3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import Inconsistent, ParseError

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
    """The prime p the loop is built from."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")


class BKElement(NamedTuple):
    a: int
    x: int


UNIT = BKElement(0, 0)

# Builds a BKElement from a pair without the keyword handling of the
# NamedTuple's generated __new__, which costs about three times as much.
_element = tuple.__new__


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
    a, ux = u
    b, vx = v
    if (a + b) % p == 0 and a % p != 0:
        index = ((a + b - p) // p) % p
        p2 = p * p
        return _element(BKElement, (p * (a // p2 + b // p2), p * (ux + vx) + index))
    return _element(BKElement, (a + b, ux + vx))


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
    a, ux = u
    c, wx = w
    if c % p != 0 or a % p == 0:
        v = _element(BKElement, (c - a, wx - ux))
    else:
        p2 = p * p
        a2, ra = divmod(a, p2)
        low = (-a) % p
        s = (ra + low) // p
        index = wx % p
        j = (index + 1 - s) % p
        b = (c // p - a2) * p2 + p * j + low
        v = _element(BKElement, (b, wx // p - ux))
    if bk_mul(params, u, v) != w:
        raise Inconsistent(f"division failed: {u} \\ {w}")
    return v


def bk_rdiv(params, w, v):
    """The unique u with u * v = w, which is v \\ w.

    M is commutative, so one division routine serves both sides: bk_mul
    is symmetric in u and v.  Its branch test, p | a+b with p not dividing
    a, is symmetric, since when p divides a + b it divides a exactly when
    it divides b.  Each branch's coordinates are symmetric too: a + b and
    u.x + v.x, or p*(a//p**2 + b//p**2) and p*(u.x + v.x) + ((a+b-p)//p
    mod p).  So u * v = w exactly when v * u = w.
    """
    return bk_ldiv(params, v, w)


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


def nonnormal_witness(params):
    r"""(x, y, s0, preimage) certifying that S is not normal.

    The generator phi = L(xy)^-1 L(x) L(y) maps S into S, so if some
    s0 in S has a phi-preimage outside S then phi(S) is a proper subset
    of S and S cannot be normal.  The witness is, with s0 = (0, 1):

        p = 2:    x = y = (1,0),             preimage (2, 0);
        p odd:    x = (1,0), y = (-1,0),     preimage (-p(p-1), 1).

    It is replayed through standard_inner before it is returned.

    It is also the first witness of the window scan that the tests keep
    as the reference: pairs ordered by |x.a| + |y.a|, then by the key
    (|a|, a < 0, |t|, t < 0) of x, then of y, with |a| <= A and
    |t| <= min(X, p**2) for bounds A and X; for each pair w in 0, 1, -1, 2,
    -2, ... up to |w| <= X; the first preimage y\(x\(xy * (0,w))) outside
    S wins.  Four facts prove it:

    1. If x.a = 0 or y.a = 0 the preimage is (0, w).  bk_mul's special
       branch needs p | a+b with p not dividing a, so it never fires when
       one factor lies in S: xy = (x.a + y.a, x.x + y.x) and
       xy * (0,w) = (xy.a, xy.x + w).  bk_ldiv's special branch needs
       p | w.a with p not dividing u.a; here the two divisions have
       (u.a, w.a) = (x.a, x.a + y.a), then (y.a, y.a); each has u.a = 0
       or u.a = w.a, so both take the ordinary branch.
    2. For odd p and x = (1,0), y = (1,t) the preimage is (0, w): 2 is
       not 0 mod p, so xy = (2, t), xy * (0,w) = (2, t+w), and the
       divisions by x and then y give (1, t+w) and (0, w), all ordinary.
    3. w = 0 gives the unit: s0 is then the unit, and x\(xy) = y and
       y\y = (0,0) because divisions in a loop are unique.
    4. Every window with A, X >= 1 holds (1,0), (-1,0) and
       w = 1, the second value tried.

    Pairs with |x.a| + |y.a| <= 1 have a factor in S (fact 1).  Among
    the pairs with sum 2, those with x.a = 0 come first (fact 1), then
    x = (1,0), the least key with |a| = 1, with y in key order (1,0),
    (1,1), (1,-1), ..., then (-1,0).  For p = 2 the first of these is
    the witness: xy = (0,0) and w = 1 gives the preimage (2,0).  For odd
    p the y = (1,t) give nothing (fact 2), and y = (-1,0) gives
    xy = (-p, p-1) and the preimage (p*((w-1) mod p) + p - p**2,
    (p-1+w) // p): the unit at w = 0 (fact 3) and (-p(p-1), 1) at w = 1.
    """
    p = params.p
    x, s0 = BKElement(1, 0), BKElement(0, 1)
    if p == 2:
        y, pre = x, BKElement(2, 0)
    else:
        y, pre = BKElement(-1, 0), BKElement(-p * (p - 1), 1)
    if standard_inner(params, "LL", x, y, pre) != s0:
        raise Inconsistent("witness replay failed")
    return x, y, s0, pre


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
            f"p={self.params.p} |a|<={self.params.p**3} "
            f"checks={self.checks} violations={len(self.violations)}"
        )
        return "\n".join([head] + self.violations)


def window_audit(params):
    r"""Audit the construction over the window |a| <= p**3; violations
    must be empty.

    Parts: (a) division round-trips, u\(uv) = v, (uv)/v = u, u(u\v) = v
    and (u/v)v = u; (b) the class of an element is its left and its right
    coset of S; (c) standard generator images of S stay in S, plus the
    proof's parametrized solution set for the special branch; (d)
    commutativity.  A dense core is checked exhaustively, each ordered
    pair on its own; the full |a| range is covered by structured probes
    with rotating small second coordinates.

    The core visits each unordered pair {u, v} once and computes uv, vu,
    u\v and u/v once each, and both orders' checks read them: v\u is
    u/v and v/u is u\v, since bk_rdiv(w, v) is bk_ldiv(v, w).  A probe
    computes its product once for its round trips, its commutativity
    check and its first coset check.
    """
    p = params.p
    bound_a = p**3
    violations = []
    checks = [0]

    def note(kind, detail):
        violations.append(f"{kind}: {detail}")

    def round_trips(u, v, w, q, r):
        """The round trips of (u, v), given w = uv, q = u\\v and r = u/v."""
        checks[0] += 4
        if bk_ldiv(params, u, w) != v:
            note("ldiv-of-product", f"{u} {v}")
        if bk_rdiv(params, w, v) != u:
            note("rdiv-of-product", f"{u} {v}")
        if bk_mul(params, u, q) != v:
            note("mul-of-ldiv", f"{u} {v}")
        if bk_mul(params, r, v) != u:
            note("mul-of-rdiv", f"{u} {v}")

    def coset_class(u, w):
        checks[0] += 2
        same = w.a == u.a
        if (bk_ldiv(params, u, w).a == 0) != same:
            note("left-coset", f"{u} {w}")
        if (bk_rdiv(params, w, u).a == 0) != same:
            note("right-coset", f"{u} {w}")

    def commutes(u, v, uv, vu):
        checks[0] += 1
        if uv != vu:
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
    for i, u in enumerate(core):
        for v in core[i:]:
            uv, vu = bk_mul(params, u, v), bk_mul(params, v, u)
            q, r = bk_ldiv(params, u, v), bk_rdiv(params, u, v)
            round_trips(u, v, uv, q, r)
            commutes(u, v, uv, vu)
            if v is not u:
                round_trips(v, u, vu, r, q)
                commutes(v, u, vu, uv)
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
            uv = bk_mul(params, u, v)
            round_trips(u, v, uv, bk_ldiv(params, u, v), bk_rdiv(params, u, v))
            commutes(u, v, uv, bk_mul(params, v, u))
            coset_class(u, uv)
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
