"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from loopkit.core import LoopTable


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
