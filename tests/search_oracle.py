"""Naive enumeration of reduced tables, kept as the reference that the
search engine in ``loopkit.search`` is tested against."""

from loopkit.core import LoopTable
from loopkit.varieties import check_variety, get_entry


def enumerate_reduced_naive(order, required=(), forbidden=()):
    """Row-by-row enumeration sharing no code with the engine; do not
    use beyond order 6."""
    n = order
    for name in tuple(required) + tuple(forbidden):
        get_entry(name)
    if n == 1:
        q = LoopTable([[0]])
        keep = all(check_variety(q, r) for r in required) and not any(
            check_variety(q, f) for f in forbidden
        )
        return [q] if keep else []
    rows = [list(range(n))]
    col_used = [1 << j for j in range(n)]
    out = []

    def fill_row(r, row, used, j):
        if j == n:
            rows.append(list(row))
            for c in range(n):
                col_used[c] |= 1 << row[c]
            next_row(r + 1)
            rows.pop()
            for c in range(n):
                col_used[c] &= ~(1 << row[c])
            return
        for v in range(n):
            bit = 1 << v
            if used & bit or col_used[j] & bit:
                continue
            row[j] = v
            fill_row(r, row, used | bit, j + 1)
        row[j] = -1

    def next_row(r):
        if r == n:
            q = LoopTable([list(x) for x in rows])
            if all(check_variety(q, name) for name in required) and not any(
                check_variety(q, name) for name in forbidden
            ):
                out.append(q)
            return
        row = [-1] * n
        row[0] = r
        fill_row(r, row, 1 << r, 1)

    next_row(1)
    return out
