"""The permutation routes of the theorem suite's translation theorems, kept
as the reference that the identities and table reads of
``loopkit.varieties`` are tested against.

Each route builds the translations as ``Perm`` objects, composes them and
compares the products, the way the suite checked these rows before it
stated them as identities or read them off the table.  The two nuclear
square routes take the nucleus from ``nuclei_oracle``.  ``ROUTES`` maps a
suite row id to the verdict its route gives; ``lc_translation_conditions``
and ``c_autotopism_condition`` give the translation conditions among the
ten-way and five-way agreements.
"""

from loopkit import perms
from loopkit.perms import Perm
from loopkit.varieties import is_autotopism
from nuclei_oracle import nuclei_from_inner_mappings
from perms_oracle import standard_generators


def is_automorphism(q, p):
    if p.images[0] != 0:
        return False
    n = q.order
    rows = q.rows
    im = p.images
    for x in range(n):
        for y in range(n):
            if im[rows[x][y]] != rows[im[x]][im[y]]:
                return False
    return True


def is_left_pseudoautomorphism(q, beta, c):
    """beta with companion c: (L(c) beta, beta, L(c) beta) is an autotopism."""
    lc = q.L(c)
    return is_autotopism(q, lc * beta, beta, lc * beta)


def is_right_pseudoautomorphism(q, alpha, c):
    """alpha with companion c: (alpha, R(c) alpha, R(c) alpha) is an autotopism."""
    rc = q.R(c)
    return is_autotopism(q, alpha, rc * alpha, rc * alpha)


def companion_of_left_inner(q, x, y):
    """Companion making L(xy)^-1 L(x) L(y) a right pseudoautomorphism."""
    return q.mul(q.rdiv(y, q.right_inv(x)), q.right_inv(q.mul(x, y)))


def companion_of_right_inner(q, x, y):
    """Companion making R(yx)^-1 R(x) R(y) a left pseudoautomorphism."""
    return q.mul(q.left_inv(q.mul(y, x)), q.ldiv(q.left_inv(x), y))


def translation_conjugation(q):
    for x in range(q.order):
        rx = q.R(x)
        lx = q.L(x)
        xl, xr = q.left_inv(x), q.right_inv(x)
        for y in range(q.order):
            if rx.inverse() * q.L(y) * rx != q.L(xl).inverse() * q.L(q.mul(xl, y)):
                return False
            if lx.inverse() * q.R(y) * lx != q.R(xr).inverse() * q.R(q.mul(y, xr)):
                return False
    return True


def commutator_translation_forms(q):
    for x in range(q.order):
        xl = q.left_inv(x)
        for y in range(q.order):
            com = perms.commutator_LR(q, y, x)
            via_l = (q.L(q.mul(xl, y)).inverse() * q.L(xl) * q.L(y)).inverse()
            yr = q.right_inv(y)
            via_r = q.R(q.mul(x, yr)).inverse() * q.R(yr) * q.R(x)
            if com != via_l or com != via_r:
                return False
    return True


def inner_pseudo_companions(q):
    for (kind, x, y), p in standard_generators(q):
        if kind == "LL" and not is_right_pseudoautomorphism(q, p, companion_of_left_inner(q, x, y)):
            return False
        if kind == "RR" and not is_left_pseudoautomorphism(q, p, companion_of_right_inner(q, x, y)):
            return False
    return True


def inverse_translation_automorphisms(q):
    for x in range(q.order):
        xl, xr = q.left_inv(x), q.right_inv(x)
        left = q.L(xl) * q.L(x)
        right = q.R(x) * q.R(xl)
        if left != q.L(x) * q.L(xr) or right != q.R(xr) * q.R(x):
            return False
        if not is_automorphism(q, left) or not is_automorphism(q, right):
            return False
    return True


def alpha_forms(q):
    """The three expressions for y -> (x(yx))/x agree, and
    R(x) R(x^l) L(x^l) L(x) is the identity."""
    for x in range(q.order):
        lx, rx = q.L(x), q.R(x)
        xl = q.left_inv(x)
        a1 = rx.inverse() * lx * rx
        if a1 != lx * rx * q.R(xl) or a1 != q.L(xl).inverse():
            return False
        if not (rx * q.R(xl) * q.L(xl) * lx).is_identity():
            return False
    return True


def square_translations(q):
    for x in range(q.order):
        lx, rx = q.L(x), q.R(x)
        x2 = q.mul(x, x)
        if q.L(x2) != lx * rx.inverse() * lx * rx or q.R(x2) != rx * lx.inverse() * rx * lx:
            return False
    return True


def right_square_translation(q):
    for x in range(q.order):
        x2 = q.mul(x, x)
        if q.R(x) * q.R(x) * q.L(x2).inverse() * q.L(x) * q.L(x) != q.R(x2):
            return False
    return True


def _nucleus(q):
    left, middle, right = nuclei_from_inner_mappings(q)
    return set(left.members()) & set(middle.members()) & set(right.members())


def nuclear_square_left_translation(q):
    """L(x^2) = L(x) L(x^l)^-1 for every x with x^2 in the nucleus."""
    nuc = _nucleus(q)
    for x in range(q.order):
        x2 = q.mul(x, x)
        if x2 in nuc and q.L(x2) != q.L(x) * q.L(q.left_inv(x)).inverse():
            return False
    return True


def osborn_nuclear_square_translation(q):
    """L(x^2) = L(x) R(x)^-1 L(x) R(x) for every x with x^2 in the nucleus."""
    nuc = _nucleus(q)
    for x in range(q.order):
        x2 = q.mul(x, x)
        if x2 in nuc:
            lx, rx = q.L(x), q.R(x)
            if q.L(x2) != lx * rx.inverse() * lx * rx:
                return False
    return True


def _is_left_translation(q, p):
    return p == q.L(p.images[0])


def lc_translation_conditions(q):
    """(L(x)^2, 1, L(x)^2) is an autotopism for every x; L(x)L(x)L(y) and
    L(y)L(x)L(x) are left translations for every x and y."""
    n = q.order
    ident = Perm.identity(n)
    sq = [q.L(x) * q.L(x) for x in range(n)]
    return (
        all(is_autotopism(q, sq[x], ident, sq[x]) for x in range(n)),
        all(_is_left_translation(q, sq[x] * q.L(y)) for x in range(n) for y in range(n)),
        all(_is_left_translation(q, q.L(y) * sq[x]) for x in range(n) for y in range(n)),
    )


def c_autotopism_condition(q):
    """(R(x)^-2, L(x)^2, 1) is an autotopism for every x."""
    ident = Perm.identity(q.order)
    return all(is_autotopism(q, q.R(x).inverse() ** 2, q.L(x) * q.L(x), ident)
               for x in range(q.order))


ROUTES = {
    "osborn_translation_conjugation": translation_conjugation,
    "osborn_commutator_translation_forms": commutator_translation_forms,
    "osborn_inner_pseudo_companions": inner_pseudo_companions,
    "osborn_inverse_translation_automorphisms": inverse_translation_automorphisms,
    "osborn_alpha_forms": alpha_forms,
    "buchsteiner_square_translations": square_translations,
    "buchsteiner_right_square_translation": right_square_translation,
    "nuclear_square_left_translation": nuclear_square_left_translation,
    "osborn_nuclear_square_translation": osborn_nuclear_square_translation,
}
