"""Equational identities over a loop signature, compiled for evaluation.

An identity is written as a string over the binary operations ``*`` (mul),
``\\`` (left division) and ``/`` (right division), with explicit parens
around every binary node, variables ``x y z u`` and the constant ``e`` for
the identity element, e.g.::

    ((e/x)*(x*y)) = y

Compilation produces a flat register program.  On first use the program
is compiled again, into generated Python, for each of two entry points:
``check_identity`` decides it on a full table, and ``partial_evaluator``
evaluates one ground instance on a partial table of a given order and
reports the first cell that blocks it.  The partial evaluator is what
makes sound search pruning possible: an instance is only judged when
every cell it reads is filled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

VAR, CONST, MUL, LDIV, RDIV = range(5)
_VARS = "xyzu"
_OPS = {"*": MUL, "\\": LDIV, "/": RDIV}

# A partial evaluator returns SAT or VIOLATED when no hole blocks the
# instance, and otherwise the index of the blocking cell.
SAT, VIOLATED = -1, -2


@dataclass(frozen=True)
class Program:
    source: str
    ops: tuple
    lhs: int
    rhs: int
    nvars: int
    # Generated functions: the full-table checker under None, the partial
    # evaluator for order n under n.
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _parse(text, pos):
    if pos >= len(text):
        raise ValueError(f"unexpected end of input in {text!r}")
    ch = text[pos]
    if ch in _VARS:
        return ("v", _VARS.index(ch)), pos + 1
    if ch == "e":
        return ("e",), pos + 1
    if ch != "(":
        raise ValueError(f"unexpected {ch!r} at {pos} in {text!r}")
    left, pos = _parse(text, pos + 1)
    if pos >= len(text) or text[pos] not in _OPS:
        raise ValueError(f"expected operator at {pos} in {text!r}")
    op = text[pos]
    right, pos = _parse(text, pos + 1)
    if pos >= len(text) or text[pos] != ")":
        raise ValueError(f"expected ')' at {pos} in {text!r}")
    return (op, left, right), pos + 1


def _emit(node, ops):
    if node[0] == "v":
        ops.append((VAR, node[1], 0))
    elif node[0] == "e":
        ops.append((CONST, 0, 0))
    else:
        a = _emit(node[1], ops)
        b = _emit(node[2], ops)
        ops.append((_OPS[node[0]], a, b))
    return len(ops) - 1


def compile_identity(source):
    """Compile "lhs = rhs" into a Program."""
    lhs_text, rhs_text = (side.replace(" ", "") for side in source.split("="))
    lhs_node, pos = _parse(lhs_text, 0)
    if pos != len(lhs_text):
        raise ValueError(f"trailing input in {lhs_text!r}")
    rhs_node, pos = _parse(rhs_text, 0)
    if pos != len(rhs_text):
        raise ValueError(f"trailing input in {rhs_text!r}")
    ops = []
    lhs = _emit(lhs_node, ops)
    rhs = _emit(rhs_node, ops)
    nvars = 0
    for op, a, _b in ops:
        if op == VAR:
            nvars = max(nvars, a + 1)
    return Program(source, tuple(ops), lhs, rhs, nvars)


def check_identity(q, prog):
    """Whether the identity holds for all assignments; early exit on failure."""
    check = prog.compiled.get(None)
    if check is None:
        check = prog.compiled[None] = _build(_full_source(prog), "check")
    return check(q.rows, q._ldiv, q._rdiv, range(q.order))


def partial_evaluator(prog, n):
    """The evaluator of ground instances of ``prog`` on partial tables of order n.

    The evaluator is called as ``evaluate(cells, assign)``, where ``cells``
    is a row-major flat table with -1 for holes and ``assign`` holds one
    value per variable.  It returns SAT, VIOLATED, or the first hole the
    evaluation needs: the cell of a product, or for a division that no
    filled cell resolves, the first hole of that row or column.  Filling
    cells only moves the blocking cell forward, which is what the search's
    watch scheme relies on.
    """
    evaluate = prog.compiled.get(n)
    if evaluate is None:
        evaluate = prog.compiled[n] = _build(_partial_source(prog, n), "evaluate")
    return evaluate


def _build(source, name):
    namespace = {}
    exec(compile(source, "<loopkit identity>", "exec"), namespace)
    return namespace[name]


def _terms(prog):
    """The program with repeated subterms merged: (terms, lhs, rhs).

    Terms are (op, a, b) over term indices, in evaluation order.  A
    repeated subterm reads the same cells as its first occurrence, so
    evaluating it once blocks and judges exactly as evaluating each copy.
    """
    terms = []
    index = {}
    number = []
    for op, a, b in prog.ops:
        key = (op, a, b) if op in (VAR, CONST) else (op, number[a], number[b])
        if key not in index:
            index[key] = len(terms)
            terms.append(key)
        number.append(index[key])
    return terms, number[prog.lhs], number[prog.rhs]


_TABLES = {MUL: "rows", LDIV: "ld", RDIV: "rd"}


def _full_source(prog):
    """A nested loop over the variables the identity uses.

    Each term is computed at the outermost level that binds all of its
    variables, a row of a table is looked up at the level of its row
    operand, and a term read once at its own level is written inline.
    """
    terms, lhs, rhs = _terms(prog)
    used = sorted(a for op, a, _b in terms if op == VAR)
    depth = len(used)
    level = []
    for op, a, b in terms:
        if op == VAR:
            level.append(used.index(a) + 1)
        elif op == CONST:
            level.append(0)
        else:
            level.append(max(level[a], level[b]))
    # The levels at which each term is read: a row operand at its own
    # level, where its row is looked up, any other operand where used.
    reads = [[] for _ in terms]
    for j, (op, a, b) in enumerate(terms):
        if op in _TABLES:
            reads[a].append(level[a])
            reads[b].append(level[j])
    reads[lhs].append(depth)
    reads[rhs].append(depth)

    stmts = [[] for _ in range(depth + 1)]
    expr = []
    row_names = {}
    for j, (op, a, b) in enumerate(terms):
        if op == VAR:
            expr.append(f"v{a}")
            continue
        if op == CONST:
            expr.append("0")
            continue
        row = f"{_TABLES[op]}[{expr[a]}]"
        if level[a] < level[j]:
            if (op, a) not in row_names:
                row_names[(op, a)] = f"h{len(row_names)}"
                stmts[level[a]].append(f"{row_names[(op, a)]} = {row}")
            row = row_names[(op, a)]
        if reads[j] == [level[j]]:
            expr.append(f"{row}[{expr[b]}]")
        else:
            expr.append(f"t{j}")
            stmts[level[j]].append(f"t{j} = {row}[{expr[b]}]")
    stmts[depth] += [f"if {expr[lhs]} != {expr[rhs]}:", "    return False"]

    lines = ["def check(rows, ld, rd, R):"]
    indent = "    "
    for d in range(depth + 1):
        if d:
            lines.append(f"{indent}for v{used[d - 1]} in R:")
            indent += "    "
        lines.extend(indent + s for s in stmts[d])
    lines.append("    return True")
    return "\n".join(lines) + "\n"


def _partial_source(prog, n):
    """Straight-line evaluation of one ground instance on order-n cells."""
    terms, lhs, rhs = _terms(prog)
    lines = ["def evaluate(cells, assign):"]
    if prog.nvars:
        lines.append("    " + "".join(f"v{k}, " for k in range(prog.nvars)) + "= assign")
    expr = []
    for j, (op, a, b) in enumerate(terms):
        if op == VAR:
            expr.append(f"v{a}")
            continue
        if op == CONST:
            expr.append("0")
            continue
        x, y, t = expr[a], expr[b], f"t{j}"
        expr.append(t)
        if op == MUL:
            cell = y if x == "0" else f"{x} * {n} + {y}"
            body = [f"i = {cell}", f"{t} = cells[i]", f"if {t} < 0:", "    return i"]
        elif op == LDIV:
            # x\y is the column of the first y in row x.
            body = [
                f"s = {x} * {n}",
                f"r = cells[s:s + {n}]",
                f"if {y} in r:",
                f"    {t} = r.index({y})",
                "elif -1 in r:",
                "    return s + r.index(-1)",
                "else:",
                f"    return {VIOLATED}",
            ]
        else:
            # x/y is the row of the first x in column y.
            body = [
                f"r = cells[{y}::{n}]",
                f"if {x} in r:",
                f"    {t} = r.index({x})",
                "elif -1 in r:",
                f"    return r.index(-1) * {n} + {y}",
                "else:",
                f"    return {VIOLATED}",
            ]
        lines.extend("    " + s for s in body)
    lines.append(f"    return {SAT} if {expr[lhs]} == {expr[rhs]} else {VIOLATED}")
    return "\n".join(lines) + "\n"
