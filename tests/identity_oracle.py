"""The interpreted identity evaluator, kept as the reference the compiled
evaluators in ``loopkit.identities`` are tested against.

It walks a Program's ops one at a time with a register list, exactly as
the generated code is meant to behave.
"""

from itertools import product

from loopkit.identities import LDIV, MUL, RDIV, VAR

UNDET, SAT, VIOLATED = range(3)


def holds_at(q, prog, assign):
    """Evaluate one ground instance on a full table."""
    rows, (ld, rd) = q.rows, q.divisions()
    regs = []
    push = regs.append
    for op, a, b in prog.ops:
        if op == MUL:
            push(rows[regs[a]][regs[b]])
        elif op == VAR:
            push(assign[a])
        elif op == LDIV:
            push(ld[regs[a]][regs[b]])
        elif op == RDIV:
            push(rd[regs[a]][regs[b]])
        else:
            push(0)
    return regs[prog.lhs] == regs[prog.rhs]


def check_identity(q, prog):
    """Whether the identity holds for every assignment."""
    return all(holds_at(q, prog, assign) for assign in product(range(q.order), repeat=prog.nvars))


def eval_partial(prog, cells, n, assign):
    """Evaluate one ground instance on a partial flat table.

    ``cells`` is row-major with -1 for holes.  Returns (SAT, -1),
    (VIOLATED, -1) or (UNDET, blocking_cell) where the blocking cell is the
    first unfilled cell the evaluation needs.
    """
    regs = []
    push = regs.append
    for op, a, b in prog.ops:
        if op == MUL:
            ci = regs[a] * n + regs[b]
            v = cells[ci]
            if v < 0:
                return UNDET, ci
            push(v)
        elif op == VAR:
            push(assign[a])
        elif op == LDIV:
            row = regs[a] * n
            want = regs[b]
            found = -1
            hole = -1
            for c in range(n):
                v = cells[row + c]
                if v == want:
                    found = c
                    break
                if v < 0 and hole < 0:
                    hole = row + c
            if found < 0:
                if hole < 0:
                    return VIOLATED, -1
                return UNDET, hole
            push(found)
        elif op == RDIV:
            col = regs[b]
            want = regs[a]
            found = -1
            hole = -1
            for r in range(n):
                v = cells[r * n + col]
                if v == want:
                    found = r
                    break
                if v < 0 and hole < 0:
                    hole = r * n + col
            if found < 0:
                if hole < 0:
                    return VIOLATED, -1
                return UNDET, hole
            push(found)
        else:
            push(0)
    if regs[prog.lhs] == regs[prog.rhs]:
        return SAT, -1
    return VIOLATED, -1
