"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from loopkit.core import LoopTable, direct_product, principal_isotope
from loopkit.tables import cyclic


@st.composite
def loops(draw, order=None):
    """A random loop of the given order, else of order at most 6: a reduced
    Latin square filled row by row, trying each cell's values in an order
    the strategy draws."""
    n = order or draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    rows = [[(i if j == 0 else j if i == 0 else -1) for j in range(n)] for i in range(n)]
    holes = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(holes):
            return True
        i, j = holes[k]
        values = [v for v in range(n) if v not in rows[i] and all(r[j] != v for r in rows)]
        rng.shuffle(values)
        for v in values:
            rows[i][j] = v
            if fill(k + 1):
                return True
        rows[i][j] = -1
        return False

    assert fill(0)
    return LoopTable(rows)


@st.composite
def product_loops(draw, min_order, max_order):
    """A loop of order min_order to max_order: the direct product of a
    random loop with Z2 or Z3, or a principal isotope of that product,
    which need not be a product itself.  Both factors must fit the range."""
    m = draw(st.sampled_from((2, 3)))
    q = direct_product(draw(loops(draw(st.integers(-(-min_order // m), max_order // m)))),
                       cyclic(m))
    if draw(st.booleans()):
        n = q.order
        q = principal_isotope(q, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    return q


def relabel(q, sigma):
    """q with each x renamed sigma[x]; sigma fixes 0."""
    n = q.order
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[sigma[x]][sigma[y]] = sigma[q.mul(x, y)]
    return LoopTable(rows)


@st.composite
def partial_latin_grids(draw, max_order=5):
    """(n, cells): a flat order-n grid with identity row and column and a
    random Latin partial filling of the rest, -1 for holes.  The grid need
    not have any completion."""
    n = draw(st.integers(1, max_order))
    cells = [-1] * (n * n)
    for j in range(n):
        cells[j] = j
        cells[j * n] = j
    interior = [i * n + j for i in range(1, n) for j in range(1, n)]
    for idx in draw(st.permutations(interior)):
        if not draw(st.booleans()):
            continue
        r, c = divmod(idx, n)
        used = set(cells[r * n:(r + 1) * n]) | set(cells[c::n])
        allowed = [v for v in range(n) if v not in used]
        if allowed:
            cells[idx] = draw(st.sampled_from(allowed))
    return n, cells
