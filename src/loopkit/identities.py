"""Equational identities over a loop signature, compiled for evaluation.

An identity is written as a string over the binary operations ``*`` (mul),
``\\`` (left division) and ``/`` (right division), with explicit parens
around every binary node, variables ``x y z u`` and the constant ``e`` for
the identity element, e.g.::

    ((e/x)*(x*y)) = y

Compilation produces one register program holding each distinct subterm
once, operands first, in first-occurrence order: a repeat reads the same
cells as its first occurrence, so one evaluation blocks and judges as
each copy would.  On first use the program is compiled again, into
generated Python, for each of two uses.  The full-table checker is
called with the loop, binds from it just the tables its body reads, and
runs a nested loop whose outermost loop, over x, reads its own range:
``check_identity`` runs it with every variable over the whole loop, or
with x alone over a given range, and ``holders`` runs it once for each
candidate a, with x = a and the other variables over a given range, to
find the a at which a law holds, such as the members of a nucleus.  The
checker has two forms, each generated once: on loops of order
``VECTOR_ORDER`` or more its innermost variable is not a loop but the
bytes of its range, and each term that reads it is a ``bytes.translate``
of that vector, one C call for the whole row; on smaller orders every
variable is a loop.  ``partial_evaluator`` evaluates one ground instance
on a partial table of a given order and reports the first cell that
blocks it.  The partial evaluator is what makes sound search pruning
possible: an instance is only judged when every cell it reads is filled.
It reads divisions from a position index of the partial table, built by
``positions`` and kept up to date by the search as cells change, so a
division the table already determines is one list lookup.

``nontrivial_assignments`` gives the ground instances worth propagating
in a search.  It drops every instance whose two sides become the same
term once the loop laws (``e*t = t*e = e\\t = t/e = t``, ``t\\t = t/t = e``
and the six cancellations such as ``t*(t\\u) = u``) are applied.  Each
law holds on every Latin partial table with identity row and column
whenever its left side is determined, so such an instance is never
violated on the tables the search visits.

``mirror`` gives the identity that holds in a loop exactly when a given
one holds in the opposite loop; every right-hand law of loopkit is one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

VAR, CONST, MUL, LDIV, RDIV = range(5)
_VARS = "xyzu"
_OPS = {"*": MUL, "\\": LDIV, "/": RDIV}
_SYMBOLS = {op: symbol for symbol, op in _OPS.items()}

# A partial evaluator returns SAT or VIOLATED when no hole blocks the
# instance, and otherwise the index of the blocking cell.
SAT, VIOLATED = -1, -2


@dataclass(frozen=True)
class Program:
    source: str
    # (op, a, b) per distinct subterm, operands before their operations, in
    # first-occurrence order; a and b index ops, or a is the variable.
    ops: tuple
    lhs: int
    rhs: int
    nvars: int
    uses_x: bool
    # Generated functions: the full-table checker under None in its scalar
    # form and under "bytes" in its vector form; the partial evaluator for
    # order n under n.
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # The result of nontrivial_assignments for order n under n.
    nontrivial: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def compile_identity(source):
    """Compile "lhs = rhs" into a Program."""
    ops = []
    index = {}

    def term(text, pos):
        """The register of the term at pos in text, and the position after it."""
        if pos >= len(text):
            raise ValueError(f"unexpected end of input in {text!r}")
        ch = text[pos]
        if ch in _VARS:
            key = (VAR, _VARS.index(ch), 0)
        elif ch == "e":
            key = (CONST, 0, 0)
        elif ch != "(":
            raise ValueError(f"unexpected {ch!r} at {pos} in {text!r}")
        else:
            a, pos = term(text, pos + 1)
            if pos >= len(text) or text[pos] not in _OPS:
                raise ValueError(f"expected operator at {pos} in {text!r}")
            op = _OPS[text[pos]]
            b, pos = term(text, pos + 1)
            if pos >= len(text) or text[pos] != ")":
                raise ValueError(f"expected ')' at {pos} in {text!r}")
            key = (op, a, b)
        if key not in index:
            index[key] = len(ops)
            ops.append(key)
        return index[key], pos + 1

    def side(text):
        reg, pos = term(text, 0)
        if pos != len(text):
            raise ValueError(f"trailing input in {text!r}")
        return reg

    lhs, rhs = (side(text.replace(" ", "")) for text in source.split("="))
    nvars = max((a + 1 for op, a, _b in ops if op == VAR), default=0)
    return Program(source, tuple(ops), lhs, rhs, nvars, (VAR, 0, 0) in index)


_MIRRORED = {MUL: "*", LDIV: "/", RDIV: "\\"}


def mirror(prog):
    """The identity that holds in Q exactly when ``prog`` holds in the
    opposite loop, where x*y is y*x.  Every product has its operands
    swapped, x\\y becomes y/x and x/y becomes y\\x; the variables keep
    their names, so a law that ranges x over a set still ranges x.
    Mirroring twice gives back any source spelled as loopkit's are."""
    text = []
    for op, a, b in prog.ops:
        text.append(_VARS[a] if op == VAR else "e" if op == CONST
                    else f"({text[b]}{_MIRRORED[op]}{text[a]})")
    return compile_identity(f"{text[prog.lhs]} = {text[prog.rhs]}")


def check_identity(q, prog, among=None):
    """Whether the identity holds for all assignments; early exit on failure.
    With ``among``, x ranges over ``among`` alone; ``prog`` must then use
    x, which its checker's outermost loop binds, or ValueError is raised."""
    everything = range(q.order)
    if among is None:
        among = everything
    else:
        _require_x(prog)
    return _checker(q, prog)(q, among, everything)


def holders(q, prog, among, others):
    """The a in ``among``, in order, at which the identity holds for x = a
    and every other variable ranging over ``others``.  ``prog`` must use x,
    which its checker's outermost loop binds, or ValueError is raised."""
    _require_x(prog)
    check = _checker(q, prog)
    others = bytes(others)  # made once for every a: either form ranges over bytes
    return tuple(a for a in among if check(q, (a,), others))


def _require_x(prog):
    if not prog.uses_x:
        raise ValueError(f"{prog.source!r} has no x to range over a given set")


# The least order whose checker runs its innermost variable as bytes.
# Each call pays for its vectors and each loop for its translate tables,
# and a vector has no early exit within its row.  Over random loops and
# groups, 12 is the least order at which both check_identity and holders
# were faster in every measured pair; at 8 holders lost every pair.
VECTOR_ORDER = 12


def _checker(q, prog):
    """The full-table checker for the order of q, generated on first use.
    It is called as ``check(q, R0, R)`` and binds from q only the tables
    its body reads, so a multiplication-only identity never builds the
    division tables, and the vector form builds only the translate tables
    it reads."""
    key = "bytes" if q.order >= VECTOR_ORDER else None
    check = prog.compiled.get(key)
    if check is None:
        check = prog.compiled[key] = _build(_full_source(prog, key is not None), "check")
    return check


def partial_evaluator(prog, n):
    """The evaluator of ground instances of ``prog`` on partial tables of order n.

    The evaluator is called as ``evaluate(cells, pos, assign)``, where
    ``cells`` is a row-major flat table with -1 for holes, ``pos`` is
    ``positions(cells, n)`` and ``assign`` holds one value per variable.
    A division whose value is in its row or column is read from ``pos``;
    only one whose value is absent scans the row or column for its first
    hole.  It returns SAT, VIOLATED, or the first hole c the
    evaluation needs: the cell of a product, or for a division that no
    filled cell resolves, the first hole of that row or column.  Filling
    cells only moves the blocking cell forward, which is what the search's
    watch scheme relies on.

    A blocked instance is reported as c + n*n, the flag, when one value at
    c cannot decide it: some later term that does not use the blocked
    term's value needs a hole other than c.  The evaluator looks for such
    a term among the later terms in order and gives up, reporting c, at
    the first one that reads c itself or is a division left unresolved
    whose row or column contains c.  On a Latin table no value put at c
    then makes the instance VIOLATED, so value trials at c are futile.
    Reduce a blocking result mod n*n to get the cell.
    """
    evaluate = prog.compiled.get(n)
    if evaluate is None:
        evaluate = prog.compiled[n] = _build(_partial_source(prog, n), "evaluate")
    return evaluate


def positions(cells, n):
    """The position index of a row-major order-n table with -1 for holes.

    A flat list of 2*n*n entries: ``pos[r*n + v]`` is the column of the
    first v in row r, ``pos[n*n + c*n + v]`` the row of the first v in
    column c, and -1 where v is absent.  So x\\y is ``pos[x*n + y]`` and
    x/y is ``pos[n*n + y*n + x]`` whenever the table determines them.
    """
    n2 = n * n
    pos = [-1] * (2 * n2)
    # Backwards, so that the first occurrence is written last.
    for i in range(n2 - 1, -1, -1):
        v = cells[i]
        if v >= 0:
            r, c = divmod(i, n)
            pos[r * n + v] = c
            pos[n2 + c * n + v] = r
    return pos


def nontrivial_assignments(prog, n):
    """The assignments over order n whose instances the loop laws leave open.

    An assignment is dropped when substituting it into the program and
    folding with ``e*t = t*e = e\\t = t/e = t``, ``t\\t = t/t = e``,
    ``t*(t\\u) = u``, ``(u/t)*t = u``, ``t\\(t*u) = u``, ``(u*t)/t = u``,
    ``(t/u)\\t = u`` and ``t/(u\\t) = u`` makes both sides the same term.
    On a Latin partial table with identity row and column each law holds
    wherever its left side is determined, so a dropped instance is never
    VIOLATED there; on other grids it can be.
    """
    kept = prog.nontrivial.get(n)
    if kept is None:
        kept = prog.nontrivial[n] = tuple(
            assign for assign in product(range(n), repeat=prog.nvars)
            if not _folds_to_tautology(prog, assign)
        )
    return kept


def _fold(op, a, b):
    """The term op(a, b) after one loop law, if one applies at the top.

    Elements are ints (0 is e) and other terms are (op, a, b) tuples whose
    operands are already folded.
    """
    if op == MUL:
        if a == 0:  # e*t = t
            return b
        if b == 0:  # t*e = t
            return a
        if type(b) is tuple and b[0] == LDIV and b[1] == a:  # t*(t\u) = u
            return b[2]
        if type(a) is tuple and a[0] == RDIV and a[2] == b:  # (u/t)*t = u
            return a[1]
    elif op == LDIV:
        if a == 0:  # e\t = t
            return b
        if a == b:  # t\t = e
            return 0
        if type(b) is tuple and b[0] == MUL and b[1] == a:  # t\(t*u) = u
            return b[2]
        if type(a) is tuple and a[0] == RDIV and a[1] == b:  # (t/u)\t = u
            return a[2]
    else:
        if b == 0:  # t/e = t
            return a
        if a == b:  # t/t = e
            return 0
        if type(a) is tuple and a[0] == MUL and a[2] == b:  # (u*t)/t = u
            return a[1]
        if type(b) is tuple and b[0] == LDIV and b[2] == a:  # t/(u\t) = u
            return b[1]
    return (op, a, b)


def _folds_to_tautology(prog, assign):
    regs = []
    for op, a, b in prog.ops:
        if op == VAR:
            regs.append(assign[a])
        elif op == CONST:
            regs.append(0)
        else:
            regs.append(_fold(op, regs[a], regs[b]))
    return regs[prog.lhs] == regs[prog.rhs]


def _build(source, name):
    namespace = {}
    exec(compile(source, "<loopkit identity>", "exec"), namespace)
    return namespace[name]


_TABLES = {MUL: "rows", LDIV: "ld", RDIV: "rd"}
# The translate tables of each operation, with its left operand fixed
# (side 0) or its right one (side 1), as the vector form names them.
_TRANSLATIONS = {(MUL, 0): "mrow", (MUL, 1): "mcol", (LDIV, 0): "lrow",
                 (LDIV, 1): "lcol", (RDIV, 0): "rrow", (RDIV, 1): "rcol"}
# How the checker binds each table from the loop q it is called with.
_BINDINGS = {"rows": "q.rows", "ld": "q.divisions()[0]", "rd": "q.divisions()[1]",
             **{name: f"q.translations({_SYMBOLS[op]!r}, {side})"
                for (op, side), name in _TRANSLATIONS.items()}}


def _full_source(prog, vector=False):
    """The source of ``check(q, R0, R)``: a nested loop over the variables
    the identity uses, the outermost over R0 and the others over R, after
    one line for each table of q the loop reads, binding it.

    Each term is computed at the outermost level that binds all of its
    variables, a row of a table is looked up at the level of its row
    operand, and a term read once at its own level is written inline.

    The vector form has no loop over the innermost variable: it is the
    bytes of its range, and each term that reads it is the vector of its
    values over that range.  a op t and t op b are one ``bytes.translate``
    of t by the translate table of a or b, looked up at that operand's
    level; a term whose operands are both vectors, such as z*z, is built
    element by element.  A side that does not read the innermost variable
    is repeated to the vector's length, and the sides compare as bytes.
    """
    terms, lhs, rhs = prog.ops, prog.lhs, prog.rhs
    used = sorted(a for op, a, _b in terms if op == VAR)
    depth = len(used)
    inner = depth if vector and depth else None
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
    read = set()

    def hoist(key, at, row):
        """The name of ``row``, looked up once at level ``at``."""
        if key not in row_names:
            row_names[key] = f"h{len(row_names)}"
            stmts[at].append(f"{row_names[key]} = {row}")
        return row_names[key]

    for j, (op, a, b) in enumerate(terms):
        if op == VAR:
            expr.append(f"v{a}")
            continue
        if op == CONST:
            expr.append("0")
            continue
        if level[j] != inner:
            read.add(_TABLES[op])
            row = f"{_TABLES[op]}[{expr[a]}]"
            if level[a] < level[j]:
                row = hoist((op, a), level[a], row)
            value = f"{row}[{expr[b]}]"
        elif level[a] == inner == level[b]:
            read.add(_TABLES[op])
            value = f"bytes([{_TABLES[op]}[s][t] for s, t in zip({expr[a]}, {expr[b]})])"
        else:
            side, fixed, vec = (1, b, a) if level[a] == inner else (0, a, b)
            read.add(_TRANSLATIONS[op, side])
            table = hoist((op, side, fixed), level[fixed],
                          f"{_TRANSLATIONS[op, side]}[{expr[fixed]}]")
            value = f"{expr[vec]}.translate({table})"
        if reads[j] == [level[j]]:
            expr.append(value)
        else:
            expr.append(f"t{j}")
            stmts[level[j]].append(f"t{j} = {value}")
    sides = [expr[lhs], expr[rhs]]
    if inner:
        var = f"v{used[-1]}"
        stmts[0].insert(0, f"{var} = bytes({'R0' if depth == 1 else 'R'})")
        sides = [text if level[k] == inner else f"bytes(({text},)) * len({var})"
                 for k, text in zip((lhs, rhs), sides)]
    stmts[depth] += [f"if {sides[0]} != {sides[1]}:", "    return False"]

    lines = ["def check(q, R0, R):"]
    lines += [f"    {name} = {table}" for name, table in _BINDINGS.items() if name in read]
    indent = "    "
    for d in range(depth + 1):
        if d and d != inner:
            lines.append(f"{indent}for v{used[d - 1]} in {'R0' if d == 1 else 'R'}:")
            indent += "    "
        lines.extend(indent + s for s in stmts[d])
    lines.append("    return True")
    return "\n".join(lines) + "\n"


def _partial_source(prog, n):
    """Straight-line evaluation of one ground instance on order-n cells.

    Where a term blocks, the code goes on through the later terms that do
    not use its value, to decide the flag described in partial_evaluator.
    """
    terms = prog.ops
    expr = [f"v{a}" if op == VAR else "0" if op == CONST else f"t{j}"
            for j, (op, a, _b) in enumerate(terms)]

    def read(k):
        """The lines that read term k, and the test that the hole c is the
        one term k blocks on when it reads -1."""
        op, a, b = terms[k]
        x, y, t = expr[a], expr[b], expr[k]
        if op == MUL:
            return [f"i = {_cell(x, y, n)}", f"{t} = cells[i]"], "i == c"
        if op == LDIV:
            return [f"{t} = pos[{_cell(x, y, n)}]"], f"c // {n} == {x}"
        # x/y is pos[n*n + y*n + x], the row of the first x in column y.
        at = f"{n * n}" if y == "0" else f"{n * n} + {y} * {n}"
        return [f"{t} = pos[{at if x == '0' else f'{at} + {x}'}]"], f"c % {n} == {y}"

    def blocked(j, hole):
        """The lines run when term j blocks on the hole ``hole``."""
        tail = []
        uses = {j}
        for k in range(j + 1, len(terms)):
            op, a, b = terms[k]
            if op in (VAR, CONST):
                continue
            if a in uses or b in uses:
                uses.add(k)
                continue
            code, test = read(k)
            tail += [*code, f"if {expr[k]} < 0:", f"    return c if {test} else c + {n * n}"]
        if not tail:
            return [f"    return {hole}"]
        return ["    " + s for s in [f"c = {hole}", *tail, "return c"]]

    lines = ["def evaluate(cells, pos, assign):"]
    if prog.nvars:
        lines.append("    " + "".join(f"v{k}, " for k in range(prog.nvars)) + "= assign")
    for j, (op, a, b) in enumerate(terms):
        if op in (VAR, CONST):
            continue
        body, _test = read(j)
        body.append(f"if {expr[j]} < 0:")
        if op == MUL:
            body += blocked(j, "i")
        else:
            # x\y is the column of the first y in row x, x/y the row of the
            # first x in column y.  When that row or column holds no such
            # value, its first hole blocks the division.
            if op == LDIV:
                scan, hole = [f"s = {expr[a]} * {n}", f"r = cells[s:s + {n}]"], "s + r.index(-1)"
            else:
                scan, hole = [f"r = cells[{expr[b]}::{n}]"], f"r.index(-1) * {n} + {expr[b]}"
            body += ["    " + s for s in [*scan, "if -1 not in r:", f"    return {VIOLATED}"]]
            body += blocked(j, hole)
        lines.extend("    " + s for s in body)
    lines.append(f"    return {SAT} if {expr[prog.lhs]} == {expr[prog.rhs]} else {VIOLATED}")
    return "\n".join(lines) + "\n"


def _cell(x, y, n):
    """The index of cell (x, y); row 0 needs no multiplication."""
    return y if x == "0" else f"{x} * {n} + {y}"
