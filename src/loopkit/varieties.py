"""Variety catalog, autotopisms and the theorem suite.

Every equational variety is defined by compiled identity programs; the
same programs drive both full-table checks here and pruning inside the
search engine.  A few varieties (conjunctions, the G-loop property) are
defined on top of the equational ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import perms, structure
from .core import isomorphic, opposite, principal_isotope
from .errors import UnknownVariety
from .identities import check_identity, compile_identity
from .perms import Perm


# ---------------------------------------------------------------------------
# autotopisms


def is_autotopism(q, alpha, beta, gamma):
    n = q.order
    if alpha.degree != n or beta.degree != n or gamma.degree != n:
        return False
    rows = q.rows
    ai, bi, gi = alpha.images, beta.images, gamma.images
    for x in range(n):
        arow = rows[ai[x]]
        qrow = rows[x]
        for y in range(n):
            if arow[bi[y]] != gi[qrow[y]]:
                return False
    return True


def nuclear_triple(q, a, kind):
    """The classical autotopism triple whose membership tests a nucleus."""
    ident = Perm.identity(q.order)
    if kind == "left":
        la = q.L(a)
        return la, ident, la
    if kind == "right":
        ra = q.R(a)
        return ident, ra, ra
    if kind == "middle":
        return q.R(a).inverse(), q.L(a), ident
    raise ValueError(f"unknown nucleus kind {kind!r}")


def square_triple(q, x):
    """(L(x)^2, L(xl)L(x), L(x)^2); autotopism for all x iff the two-sided
    square identity of the catalog entry "jaiyeola" holds."""
    lx = q.L(x)
    lx2 = lx * lx
    return lx2, q.L(q.left_inv(x)) * lx, lx2


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class VarietyEntry:
    name: str
    summary: str
    equations: tuple = ()
    parts: tuple = ()
    predicate: object = None
    prop_equations: tuple = ()


def _eq(*sources):
    return tuple(compile_identity(s) for s in sources)


_OSBORN_EQS = _eq(
    "(((x*(y*x))/x)*(z*x)) = (x*((y*z)*x))",
    "((x*((y*(e/x))*x))*(z*x)) = (x*((y*z)*x))",
    "(((e/x)\\y)*(z*x)) = (x*((y*z)*x))",
    "((x*y)*(x\\((x*z)*x))) = ((x*(y*z))*x)",
    "((x*y)*((x*((x\\e)*z))*x)) = ((x*(y*z))*x)",
    "((x*y)*(z/(x\\e))) = ((x*(y*z))*x)",
    "((e/x)\\(((e/x)*y)*z)) = ((y*(z*x))/x)",
    "(x\\((x*y)*z)) = ((y*(z*(x\\e)))/(x\\e))",
)


def _entries():
    out = []

    def add(name, summary, eqs=(), parts=(), predicate=None, prop=()):
        out.append(
            VarietyEntry(name, summary, tuple(eqs), tuple(parts), predicate, tuple(prop))
        )

    add("associative", "associativity (the loop is a group)", _eq("((x*y)*z) = (x*(y*z))"))
    add("commutative", "commutativity", _eq("(x*y) = (y*x)"))
    add("lip", "left inverse property", _eq("((e/x)*(x*y)) = y"))
    add("rip", "right inverse property", _eq("((y*x)*(x\\e)) = y"))
    add("ip", "inverse property (lip and rip)", parts=("lip", "rip"))
    add("lap", "left alternative", _eq("(x*(x*y)) = ((x*x)*y)"))
    add("rap", "right alternative", _eq("((y*x)*x) = (y*(x*x))"))
    add("ap", "alternative (lap and rap)", parts=("lap", "rap"))
    add("flx", "flexible", _eq("((x*y)*x) = (x*(y*x))"))
    add("lc", "left central", _eq("(x*(x*(y*z))) = ((x*(x*y))*z)"))
    add("rc", "right central (mirror of lc)", _eq("(((z*y)*x)*x) = (z*((y*x)*x))"))
    add("c", "central", _eq("(((y*x)*x)*z) = (y*(x*(x*z)))"))
    add("moufang", "Moufang", _eq("((x*y)*(z*x)) = (x*((y*z)*x))"))
    add("lbol", "left Bol", _eq("(x*(y*(x*z))) = ((x*(y*x))*z)"))
    add("rbol", "right Bol (mirror of lbol)", _eq("(((z*x)*y)*x) = (z*((x*y)*x))"))
    add(
        "nuclear_squares",
        "every square lies in the nucleus",
        _eq(
            "((x*x)*(y*z)) = (((x*x)*y)*z)",
            "(y*((x*x)*z)) = ((y*(x*x))*z)",
            "((y*z)*(x*x)) = (y*(z*(x*x)))",
        ),
    )
    add("extra", "extra (moufang with nuclear squares)", parts=("moufang", "nuclear_squares"))
    add("lcc", "left conjugacy closed", _eq("(((x*y)/x)*(x*z)) = (x*(y*z))"))
    add("rcc", "right conjugacy closed", _eq("((y*x)*(x\\(z*x))) = ((y*z)*x)"))
    add("cc", "conjugacy closed (lcc and rcc)", parts=("lcc", "rcc"))
    add("buchsteiner", "Buchsteiner", _eq("(x\\((x*y)*z)) = ((y*(z*x))/x)"))
    # The eight forms are equivalent, so any one propagates for all; form 4
    # alone prunes fastest, as propagation_programs says.
    add("osborn", "Osborn (primary form)", _OSBORN_EQS[:1], prop=_OSBORN_EQS[3:4])
    for i in range(8):
        add(f"osborn{i + 1}", f"Osborn, equivalent form {i + 1} of 8", _OSBORN_EQS[i : i + 1],
            prop=_OSBORN_EQS[3:4])
    add("wip", "weak inverse property", _eq("(x*((y*x)\\e)) = (y\\e)"))
    add(
        "aaip",
        "antiautomorphic inverse property",
        _eq("(e/x) = (x\\e)", "((x*y)\\e) = ((y\\e)*(x\\e))"),
    )
    add("cip", "crossed inverse property", _eq("((x*y)*(x\\e)) = y"))
    add(
        "vd",
        "conjugations are pseudoautomorphisms with their own companion",
        _eq(
            "((x*((x*y)/x))*((x*z)/x)) = (x*((x*(y*z))/x))",
            "((x\\(z*x))*((x\\(y*x))*x)) = ((x\\((z*y)*x))*x)",
        ),
    )
    add(
        "gen_moufang",
        "generalized Moufang",
        _eq("(x*((y*z)*x)) = ((((e/y)*(e/x))\\e)*(z*x))"),
    )
    add(
        "left_a",
        "left inner mappings are automorphisms",
        _eq("((x*y)\\(x*(y*(z*u)))) = (((x*y)\\(x*(y*z)))*((x*y)\\(x*(y*u))))"),
    )
    add(
        "right_a",
        "right inner mappings are automorphisms",
        _eq("((((z*u)*y)*x)/(y*x)) = ((((z*y)*x)/(y*x))*(((u*y)*x)/(y*x)))"),
    )
    add(
        "jaiyeola",
        "two-sided square law",
        _eq("((x*(x*y))*((e/x)*(x*z))) = (x*(x*(y*z)))"),
    )
    add("gloop", "isomorphic to all its principal isotopes", predicate=lambda q: is_g_loop(q))
    return {e.name: e for e in out}


CATALOG = _entries()


def catalog_names():
    return tuple(CATALOG.keys())


def get_entry(name):
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownVariety(name) from None


def check_variety(q, name):
    """Whether q is in the catalog entry ``name``.  To decide several
    entries of one loop, share one ``Context``: it decides each identity once."""
    return Context(q).flag(name)


def propagation_programs(name):
    """The identity programs the search can prune with for an entry.

    A conjunction gives its parts' programs; an entry with a predicate
    gives none and is only checked at the leaves.  The programs need not
    be the defining equations: any identity implied by the entry works,
    since a violated fully-determined ground instance of a consequence
    rules out every completion in the variety.  So every Osborn entry,
    whichever form defines it, propagates with form 4 alone,
    ``(xy)(x\\((xz)x)) = (x(yz))x``.  On the order-7 proper-Osborn screen
    it visits 40,079 nodes in about a fifth of the time all eight forms
    take for 18,871, and every other single form visits 45,304 or more.
    Every other entry propagates with its defining equations; Moufang's
    law alone is faster than with eight consequences beside it.
    Membership itself is always decided by the defining equations.
    Raises UnknownVariety for unlisted names.
    """
    entry = get_entry(name)
    if entry.parts:
        return tuple(prog for part in entry.parts for prog in propagation_programs(part))
    return entry.prop_equations or entry.equations


# ---------------------------------------------------------------------------
# G-loops


def is_g_loop(q):
    """Whether every principal isotope is isomorphic to q.

    Only the 2n one-sided isotopes Q(c, 0) and Q(0, c) are compared with q.
    That suffices: Q(a, b) is a principal isotope of Q(0, b) with its second
    parameter at the identity, and an isomorphism Q(0, b) -> Q carries it to
    some Q(c, 0).  The tests compare this with the scan of all n^2 isotopes.
    """
    return all(
        isomorphic(q, principal_isotope(q, c, 0)) is not None
        and isomorphic(q, principal_isotope(q, 0, c)) is not None
        for c in range(q.order)
    )


# ---------------------------------------------------------------------------
# theorem suite


# The identities that rows of the suite and the order-16 report check,
# keyed by check id.  Maps compose right to left; x^l = e/x and x^r = x\e.
_IDENTITIES = {
    "lc_tenway_agreement": _eq(
        "((x*x)*(y*z)) = ((x*(x*y))*z)",
        "(((x*x)*y)*z) = (x*(x*(y*z)))",
        "(y*(x*(x*z))) = ((y*(x*x))*z)",
    ),
    # (R(x)^-2, L(x)^2, 1) as an autotopism, read at every y and z.
    "c_fiveway_agreement": _eq("(((y/x)/x)*(x*(x*z))) = (y*z)"),
    # Rows that equate translation products for all x and y, each as the
    # identities the equalities give at every z (and u).
    "osborn_commutator_translation_forms": _eq(
        # [L(y), R(x)] = (L(x^l y)^-1 L(x^l) L(y))^-1
        "(y\\((y*(z*x))/x)) = (y\\((e/x)\\(((e/x)*y)*z)))",
        # [L(y), R(x)] = R(x y^r)^-1 R(y^r) R(x)
        "(y\\((y*(z*x))/x)) = (((z*x)*(y\\e))/(x*(y\\e)))",
    ),
    "osborn_inner_pseudo_companions": _eq(
        # L(x,y) = L(xy)^-1 L(x) L(y) is a right pseudoautomorphism with
        # companion c = (y/x^r)(xy)^r: L(x,y)z * (L(x,y)u * c) = L(x,y)(zu) * c
        "(((x*y)\\(x*(y*z)))*(((x*y)\\(x*(y*u)))*((y/(x\\e))*((x*y)\\e))))"
        " = (((x*y)\\(x*(y*(z*u))))*((y/(x\\e))*((x*y)\\e)))",
        # R(x,y) = R(yx)^-1 R(x) R(y) is a left pseudoautomorphism with
        # companion c = (yx)^l (x^l\y): (c * R(x,y)z) * R(x,y)u = c * R(x,y)(zu)
        "((((e/(y*x))*((e/x)\\y))*(((z*y)*x)/(y*x)))*(((u*y)*x)/(y*x)))"
        " = (((e/(y*x))*((e/x)\\y))*((((z*u)*y)*x)/(y*x)))",
    ),
    "osborn_inverse_translation_automorphisms": _eq(
        # L(x^l) L(x) = L(x) L(x^r), and it is an automorphism
        "((e/x)*(x*y)) = (x*((x\\e)*y))",
        # R(x) R(x^l) = R(x^r) R(x), and it is an automorphism
        "((y*(e/x))*x) = ((y*x)*(x\\e))",
        "((e/x)*(x*(y*z))) = (((e/x)*(x*y))*((e/x)*(x*z)))",
        "(((y*z)*(e/x))*x) = (((y*(e/x))*x)*((z*(e/x))*x))",
    ),
    "osborn_alpha_forms": _eq(
        # R(x)^-1 L(x) R(x) = L(x) R(x) R(x^l) = L(x^l)^-1
        "((x*(y*x))/x) = (x*((y*(e/x))*x))",
        "((x*(y*x))/x) = ((e/x)\\y)",
        # R(x) R(x^l) L(x^l) L(x) = 1
        "((((e/x)*(x*y))*(e/x))*x) = y",
    ),
    "buchsteiner_square_translations": _eq(
        # L(x^2) = L(x) R(x)^-1 L(x) R(x)
        "((x*x)*y) = (x*((x*(y*x))/x))",
        # R(x^2) = R(x) L(x)^-1 R(x) L(x)
        "(y*(x*x)) = ((x\\((x*y)*x))*x)",
    ),
    "buchsteiner_right_square_translation": _eq(
        # R(x) R(x) L(x^2)^-1 L(x) L(x) = R(x^2)
        "((((x*x)\\(x*(x*y)))*x)*x) = (y*(x*x))",
    ),
    # Rows that equate translations for each x whose square lies in the
    # nucleus, each as the identity the equality gives at every y.
    # L(x^2) = L(x) L(x^l)^-1
    "nuclear_square_left_translation": _eq("((x*x)*y) = (x*((e/x)\\y))"),
    # L(x^2) = L(x) R(x)^-1 L(x) R(x)
    "osborn_nuclear_square_translation": _eq("((x*x)*y) = (x*((x*(y*x))/x))"),
    # L(x)^4 = 1 and R(x)^4 = 1, read at every y.
    "fourth_power_translations": _eq("(x*(x*(x*(x*y)))) = y", "((((y*x)*x)*x)*x) = y"),
}


class Context:
    """One loop's identity verdicts, nuclei, center, their quotients and
    nilpotency class, for the suite, ``loopkit check``, the order-16 report
    and search leaves.  ``holds`` is the one place that runs the checker."""

    def __init__(self, q):
        self.q = q
        self._verdicts = {}
        self._normal = {}

    def holds(self, progs, among=None):
        """Whether each identity in ``progs`` holds with x over ``among`` and
        its other variables over the loop.  Each is decided once per set of
        x; None, like any set that covers the loop, is the whole loop."""
        if among is not None:
            among = frozenset(among)
            if len(among) == self.q.order:
                among = None
        for prog in progs:
            key = prog.source, among
            if key not in self._verdicts:
                self._verdicts[key] = check_identity(self.q, prog, among)
            if not self._verdicts[key]:
                return False
        return True

    def flag(self, name):
        """Whether q is in the catalog entry ``name``: its equations hold,
        its parts do, or its predicate does.  Only equations are cached, in
        ``holds``; no caller asks the G-loop predicate twice of one context."""
        entry = get_entry(name)
        if entry.predicate is not None:
            return entry.predicate(self.q)
        if entry.parts:
            return all(map(self.flag, entry.parts))
        return self.holds(entry.equations)

    def squares_in(self, subloop):
        """The x, in order, whose square lies in ``subloop``."""
        return [x for x, row in enumerate(self.q.rows) if row[x] in subloop]

    @cached_property
    def mlt_sides(self):
        """(Mlt_left, Mlt_right), the two one-sided multiplication groups."""
        return perms.mlt_left(self.q), perms.mlt_right(self.q)

    def normal_in_mlt(self, side):
        """Whether Mlt_left (``side`` "left") or Mlt_right ("right") is
        normal in Mlt.

        H = Mlt_left is generated by the left translations its chain kept,
        and Mlt by those and the kept right translations.  H holds its
        conjugates by its own generators, and a subgroup of a finite group
        that holds its conjugates by every generator is normal, so it is
        enough that g^-1 t g sifts into H for each kept t of H and each
        kept g of Mlt_right; mirrored for Mlt_right.  No chain of Mlt is
        built.
        """
        if side not in self._normal:
            left, right = self.mlt_sides
            h, other = (left, right) if side == "left" else (right, left)
            conjugators = [(g.inverse(), g) for g in other.generators]
            self._normal[side] = all(
                gi * t * g in h for gi, g in conjugators for t in h.generators)
        return self._normal[side]

    @cached_property
    def nuclei(self):
        q = self.q
        return (
            structure.left_nucleus(q),
            structure.middle_nucleus(q),
            structure.right_nucleus(q),
        )

    @cached_property
    def nucleus(self):
        nl, nm, nr = self.nuclei
        return structure.SubloopSet(self.q.order, nl.mask & nm.mask & nr.mask)

    @cached_property
    def factor(self):
        """The context of the quotient by the nucleus.  Raises NotNormal
        when the nucleus is not normal: the suite asks only where its
        row's hypothesis makes it normal, ``loopkit check`` on any loop."""
        return Context(structure.quotient(self.q, self.nucleus)[0])

    @cached_property
    def center(self):
        return structure.center(self.q)

    @cached_property
    def central_factor(self):
        """The context of the quotient by the center, which is always
        normal: each standard inner generator fixes a central a, as
        L(x,y)a = (xy)\\((xy)a) = a, R(x,y)a = (a(yx))/(yx) = a and
        T(x)a = x\\(xa) = a."""
        return Context(structure.quotient(self.q, self.center)[0])

    @cached_property
    def nilpotency_class(self):
        """Length of the upper central series, or None if it stalls below Q."""
        if self.q.order == 1:
            return 0
        if len(self.center) == 1:
            return None
        below = self.central_factor.nilpotency_class
        return None if below is None else below + 1


def _check_a2_tenway(ctx):
    # Three more of the ten conditions say that (L(x)^2, 1, L(x)^2) is an
    # autotopism and that L(x)L(x)L(y) and L(y)L(x)L(x) are left
    # translations.  Read at every z (and u), they are lc with its sides
    # swapped, lc, and the third identity _IDENTITIES lists for this row.
    n, (left, middle, _right) = ctx.q.order, ctx.nuclei
    conds = [ctx.flag("lc"), *(ctx.holds((p,)) for p in _IDENTITIES["lc_tenway_agreement"])]
    conds.append(ctx.flag("lap") and len(ctx.squares_in(left)) == n)
    conds.append(ctx.flag("lap") and len(ctx.squares_in(middle)) == n)
    conds.append(ctx.flag("lip") and len(ctx.squares_in(left)) == n)
    return len(set(conds)) == 1


def _check_a3_fiveway(ctx):
    # The last condition, that (R(x)^-2, L(x)^2, 1) is an autotopism, is
    # read at every y and z as the identity _IDENTITIES lists for this row.
    n = ctx.q.order
    return len({
        ctx.flag("c"),
        ctx.flag("lc") and ctx.flag("rc"),
        ctx.flag("ip") and len(ctx.squares_in(ctx.nucleus)) == n,
        ctx.flag("ap") and len(ctx.squares_in(ctx.nuclei[1])) == n,
        ctx.holds(_IDENTITIES["c_fiveway_agreement"]),
    }) == 1


def _check_inner_equal(ctx):
    # The left and right inner mapping groups are the stabilizers of 0 in
    # Mlt_left and Mlt_right; both must equal the closure of the
    # commutators [L(y), R(x)].
    q = ctx.q
    n = q.order
    il, ir = map(perms.stabilizer_of_0, ctx.mlt_sides)
    comms = (perms.commutator_LR(q, y, x) for x in range(n) for y in range(n))
    return il == ir and perms.closure(comms) == il


def _check_square_autotopism(ctx):
    q = ctx.q
    via_triples = all(is_autotopism(q, *square_triple(q, x)) for x in range(q.order))
    return via_triples == ctx.flag("jaiyeola")


def _check_nuclear_autotopism_agreement(ctx):
    q = ctx.q
    for a in range(q.order):
        for kind, nuc in zip(("left", "middle", "right"), ctx.nuclei):
            if is_autotopism(q, *nuclear_triple(q, a, kind)) != (a in nuc):
                return False
    return True


# Each suite row is (check_id, applicability, verdict), both callables on
# the context; applicability returning False yields N/A.  The helpers below
# build the common shapes.


def _flags(*names):
    """Every named catalog flag holds; ``_flags()`` holds for every loop."""
    return lambda ctx: all(ctx.flag(name) for name in names)


def _agree(*conds):
    """The conditions all hold or all fail."""
    return lambda ctx: len({cond(ctx) for cond in conds}) == 1


def _two_of_three(check_id, *conds):
    """The row: any two of the three conditions give the third."""
    return (check_id, lambda ctx: sum(cond(ctx) for cond in conds) >= 2,
            lambda ctx: all(cond(ctx) for cond in conds))


def _holds(check_id, applies, among=lambda ctx: None):
    """The row: every identity ``_IDENTITIES`` lists for it holds with x
    over ``among(ctx)``, by default the whole loop."""
    progs = _IDENTITIES[check_id]
    return check_id, applies, lambda ctx: ctx.holds(progs, among(ctx))


_SUITE = (
    ("lc_tenway_agreement", _flags(), _check_a2_tenway),
    ("c_fiveway_agreement", _flags(), _check_a3_fiveway),
    _two_of_three("lcc_lc_lbol_two_of_three", _flags("lcc"), _flags("lc"), _flags("lbol")),
    ("lbol_lc_iff_left_nuclear_squares", _flags("lbol"),
     _agree(_flags("lc"), lambda ctx: len(ctx.squares_in(ctx.nuclei[0])) == ctx.q.order)),
    ("extra_loop_equivalences", _flags(), _agree(
        _flags("extra"),
        lambda ctx: ctx.flag("lc") and (
            ctx.flag("rbol") or ctx.flag("rcc") or ctx.flag("buchsteiner")),
        lambda ctx: ctx.flag("c") and (ctx.flag("lbol") or ctx.flag("lcc")),
    )),
    ("lc_implies_lip_and_normal_left_nucleus", _flags("lc"),
     lambda ctx: ctx.flag("lip")
     and ctx.nuclei[0] == ctx.nuclei[1]
     and structure.is_normal_subloop(ctx.q, ctx.nuclei[0])),
    ("lip_left_middle_nuclei_equal", _flags("lip"),
     lambda ctx: ctx.nuclei[0] == ctx.nuclei[1]),
    ("rip_right_middle_nuclei_equal", _flags("rip"),
     lambda ctx: ctx.nuclei[2] == ctx.nuclei[1]),
    ("normal_mlt_left_gives_normal_right_nucleus", lambda ctx: ctx.normal_in_mlt("left"),
     lambda ctx: structure.is_normal_subloop(ctx.q, ctx.nuclei[2])),
    ("normal_mlt_right_gives_normal_left_nucleus", lambda ctx: ctx.normal_in_mlt("right"),
     lambda ctx: structure.is_normal_subloop(ctx.q, ctx.nuclei[0])),
    # "osborn" is form 1 itself, so every form is evaluated once.
    ("osborn_eightway_agreement", _flags(),
     _agree(_flags("osborn"), *(_flags(f"osborn{i}") for i in range(2, 9)))),
    ("osborn_closed_under_opposite", _flags(),
     _agree(_flags("osborn"), lambda ctx: check_variety(opposite(ctx.q), "osborn"))),
    ("moufang_implies_osborn", _flags("moufang"), _flags("osborn")),
    ("osborn_moufang_by_single_extra_property", _flags("osborn"),
     _agree(*map(_flags, ("moufang", "lip", "rip", "flx", "lap", "rap")))),
    ("osborn_aaip_implies_moufang", _flags("osborn", "aaip"), _flags("moufang")),
    ("cc_implies_osborn", _flags("cc"), _flags("osborn")),
    ("osborn_cc_lcc_rcc_agree", _flags("osborn"),
     _agree(_flags("cc"), _flags("lcc"), _flags("rcc"))),
    ("vd_implies_osborn", _flags("vd"), _flags("osborn")),
    ("gen_moufang_iff_wip_osborn", _flags(),
     _agree(_flags("gen_moufang"), _flags("wip", "osborn"))),
    # R(x)^-1 L(y) R(x) = L(x^l)^-1 L(x^l y) and L(x)^-1 R(y) L(x) =
    # R(x^r)^-1 R(y x^r), read at every z, are osborn7 (sides swapped) and
    # osborn8 (y and z renamed).
    ("osborn_translation_conjugation", _flags("osborn"), _flags("osborn7", "osborn8")),
    ("osborn_mlt_one_sided_normal", _flags("osborn"),
     lambda ctx: ctx.normal_in_mlt("left") and ctx.normal_in_mlt("right")),
    ("osborn_inner_groups_coincide", _flags("osborn"), _check_inner_equal),
    _holds("osborn_commutator_translation_forms", _flags("osborn")),
    ("osborn_nuclei_coincide_and_normal", _flags("osborn"),
     lambda ctx: ctx.nuclei[0] == ctx.nuclei[1] == ctx.nuclei[2]
     and structure.is_normal_subloop(ctx.q, ctx.nucleus)),
    _holds("osborn_inner_pseudo_companions", _flags("osborn")),
    _holds("osborn_inverse_translation_automorphisms", _flags("osborn")),
    _holds("osborn_alpha_forms", _flags("osborn")),
    ("osborn_cip_implies_commutative_moufang", _flags("osborn", "cip"),
     _flags("commutative", "moufang")),
    ("osborn_a_loop_factor_commutative_moufang",
     lambda ctx: ctx.flag("osborn") and (ctx.flag("left_a") or ctx.flag("right_a")),
     lambda ctx: _flags("commutative", "moufang")(ctx.factor)),
    ("cc_factor_by_nucleus_abelian", _flags("cc"),
     lambda ctx: _flags("associative", "commutative")(ctx.factor)),
    ("buchsteiner_nuclei_coincide", _flags("buchsteiner"),
     lambda ctx: ctx.nuclei[0] == ctx.nuclei[1] == ctx.nuclei[2]),
    _two_of_three("osborn_buchsteiner_nuclear_squares_two_of_three",
                  _flags("osborn"), _flags("buchsteiner"), _flags("nuclear_squares")),
    _two_of_three("osborn_buchsteiner_square_law_two_of_three",
                  _flags("osborn"), _flags("buchsteiner"), _flags("jaiyeola")),
    _two_of_three("gen_moufang_wipcc_nuclear_squares_two_of_three",
                  _flags("gen_moufang"), _flags("wip", "cc"), _flags("nuclear_squares")),
    _holds("buchsteiner_square_translations", _flags("buchsteiner")),
    _holds("buchsteiner_right_square_translation", _flags("buchsteiner")),
    _holds("nuclear_square_left_translation", _flags(),
           lambda ctx: ctx.squares_in(ctx.nucleus)),
    _holds("osborn_nuclear_square_translation", _flags("osborn"),
           lambda ctx: ctx.squares_in(ctx.nucleus)),
    ("square_law_autotopism_agreement", _flags(), _check_square_autotopism),
    ("nucleus_autotopism_route_agreement", _flags(), _check_nuclear_autotopism_agreement),
)


@dataclass
class TheoremReport:
    loop_id: str
    rows: list

    def failures(self):
        return [check_id for check_id, status in self.rows if status == "FAIL"]

    def format(self):
        return "\n".join(f"{self.loop_id} {check_id} {status}" for check_id, status in self.rows)


def verify_theorems(q, loop_id="loop"):
    """Run the full theorem suite against one loop.

    Each check is conditional: loops outside a check's hypothesis report
    N/A for it.  A FAIL on any loop means the implementation (not the
    mathematics) is wrong somewhere.
    """
    ctx = Context(q)
    rows = []
    for check_id, applies, verdict in _SUITE:
        if not applies(ctx):
            rows.append((check_id, "N/A"))
            continue
        rows.append((check_id, "PASS" if verdict(ctx) else "FAIL"))
    return TheoremReport(loop_id, rows)


def is_proper_osborn(q):
    """Osborn but neither Moufang nor conjugacy closed."""
    ctx = Context(q)
    return ctx.flag("osborn") and not ctx.flag("moufang") and not ctx.flag("cc")


def order16_report(q, loop_id="loop"):
    """Structure checks for a proper Osborn loop of order 16.

    The smallest proper Osborn loops have order 16 and share a rigid
    shape: center of order 2, a dihedral subloop of order 8, and a
    nonassociative conjugacy closed WIP quotient of order 8, with
    nilpotency class 3.  The two loops of that order are told apart by
    whether every left and right translation has fourth power one; that
    flag is reported as yes/no rather than pass/fail.
    """
    from .tables import dihedral

    if q.order != 16:
        raise ValueError(f"expected order 16, got {q.order}")
    ctx = Context(q)
    rows = [("center_order_two", "PASS" if len(ctx.center) == 2 else "FAIL")]
    d8 = dihedral(4)
    has_d8 = any(len(s) == 8 and isomorphic(structure.subloop_table(q, s), d8)
                 for s in structure.all_subloops(q))
    rows.append(("dihedral8_subloop", "PASS" if has_d8 else "FAIL"))
    qt = ctx.central_factor
    eight = qt.q.order == 8
    rows.append(("central_quotient_order_eight", "PASS" if eight else "FAIL"))
    for check_id, verdict in (
            ("central_quotient_nonassociative", lambda c: not c.flag("associative")),
            ("central_quotient_wip", _flags("wip")),
            ("central_quotient_cc", _flags("cc"))):
        rows.append((check_id, ("PASS" if verdict(qt) else "FAIL") if eight else "N/A"))
    rows.append(("nilpotency_class_three",
                 "PASS" if ctx.nilpotency_class == 3 else "FAIL"))
    fourth = ctx.holds(_IDENTITIES["fourth_power_translations"])
    rows.append(("fourth_power_translations", "yes" if fourth else "no"))
    return TheoremReport(loop_id, rows)
