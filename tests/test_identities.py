"""Identity compiler and the compiled full and partial evaluators, against
the interpreted oracle in ``identity_oracle``."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identity_oracle import SAT as ORACLE_SAT
from identity_oracle import UNDET, eval_partial, holds_at
from identity_oracle import VIOLATED as ORACLE_VIOLATED
from identity_oracle import check_identity as oracle_check_identity
from loop_strategies import loops, partial_latin_grids, product_loops
from loopkit import structure, varieties
from loopkit.identities import (
    CONST,
    LDIV,
    MUL,
    RDIV,
    SAT,
    VAR,
    VECTOR_ORDER,
    VIOLATED,
    _full_source,
    check_identity,
    compile_identity,
    holders,
    mirror,
    nontrivial_assignments,
    partial_evaluator,
    positions,
)
from loopkit.core import direct_product, opposite, principal_isotope
from loopkit.tables import cyclic, dihedral
from loopkit.varieties import CATALOG, propagation_programs

ASSOC = compile_identity("((x*y)*z) = (x*(y*z))")
COMM = compile_identity("(x*y) = (y*x)")
LIP = compile_identity("((e/x)*(x*y)) = y")


def test_compile_counts_variables():
    assert ASSOC.nvars == 3
    assert COMM.nvars == 2
    assert compile_identity("(x*x) = (x*x)").nvars == 1
    assert LIP.source == "((e/x)*(x*y)) = y"


def test_compile_rejects_malformed():
    for bad in ("x*y = y*x", "((x*y) = y", "(x?y) = x", "(x*y) = (y*x) extra", "(v*x) = x"):
        with pytest.raises(ValueError):
            compile_identity(bad)


def test_holds_at_single_instance(q5):
    # 2*(2*2) = 2*4 = 1 but (2*2)*2 = 4*2 = 0 in the order-5 loop.
    assert not holds_at(q5, ASSOC, [2, 2, 2])
    assert holds_at(q5, ASSOC, [0, 2, 2])


def test_check_identity_on_groups(q5):
    assert check_identity(cyclic(5), ASSOC)
    assert check_identity(cyclic(5), COMM)
    assert check_identity(dihedral(3), ASSOC)
    assert not check_identity(dihedral(3), COMM)
    assert not check_identity(q5, ASSOC)


def test_divisions_in_identities():
    # x\(x*y) = y and (x*y)/y = x hold in every loop.
    cancel_left = compile_identity("(x\\(x*y)) = y")
    cancel_right = compile_identity("((x*y)/y) = x")
    for q in (cyclic(6), dihedral(3)):
        assert check_identity(q, cancel_left)
        assert check_identity(q, cancel_right)


def test_multiplication_only_identities_build_no_divisions():
    # dihedral(8), of order 16, runs the vector form and its translate tables.
    for q in (dihedral(4), dihedral(8)):
        assert check_identity(q, ASSOC)
        assert q._ldiv is None and q._rdiv is None
        assert check_identity(q, LIP)
        assert q._ldiv is not None


def test_vector_form_builds_only_the_translate_tables_it_reads():
    # Associativity translates by the rows of * alone; Buchsteiner's law
    # also by its columns, the rows of \ and the columns of /.
    q = dihedral(8)
    assert check_identity(q, ASSOC)
    assert set(q._translations) == {("*", 0)} and q._ldiv is None
    assert check_identity(q, CATALOG["buchsteiner"].equations[0])
    assert set(q._translations) == {("*", 0), ("*", 1), ("\\", 0), ("/", 1)}


def test_translate_tables_fix_one_operand():
    q = principal_isotope(direct_product(dihedral(3), cyclic(2)), 5, 7)
    n = q.order
    ld, rd = q.divisions()
    for op, table in (("*", q.rows), ("\\", ld), ("/", rd)):
        rows, cols = q.translations(op, 0), q.translations(op, 1)
        assert q.translations(op, 0) is rows
        for a in range(n):
            assert len(rows[a]) == len(cols[a]) == 256
            assert rows[a][n:] == cols[a][n:] == bytes(256 - n)
            assert all(rows[a][t] == table[a][t] and cols[a][t] == table[t][a] for t in range(n))


def test_checks_over_some_x_need_x():
    # Without x, among would bind the first variable the program uses:
    # y*y = e holds at y in {0, 2} of Z4 but not over the loop.
    square = compile_identity("(y*y) = e")
    q = cyclic(4)
    assert not check_identity(q, square)
    with pytest.raises(ValueError, match="no x"):
        check_identity(q, square, [0, 2])
    with pytest.raises(ValueError, match="no x"):
        holders(q, square, range(4), range(4))


def test_constant_evaluates_to_identity_element():
    left_unit = compile_identity("(e*x) = x")
    right_unit = compile_identity("(x*e) = x")
    assert check_identity(dihedral(4), left_unit)
    assert check_identity(dihedral(4), right_unit)


def _partial_from(rows, n):
    cells = []
    for row in rows:
        cells.extend(row)
    cells.extend([-1] * (n * n - len(cells)))
    return cells


def _cell_of(result, n):
    """A partial evaluator's result with the flag cleared."""
    return result % (n * n) if result >= 0 else result


def _oracle_result(prog, cells, n, assign):
    """The oracle's answer in the compiled evaluator's encoding."""
    status, cell = eval_partial(prog, cells, n, assign)
    if status == UNDET:
        return cell
    return SAT if status == ORACLE_SAT else VIOLATED


def test_eval_partial_blocks_on_first_needed_hole():
    n = 3
    # Row 0 filled (identity), row 1 filled, row 2 empty.
    cells = _partial_from([[0, 1, 2], [1, 2, 0]], n)
    # Needs (1*2) = cell 5 (known) and (2*1) = cell 7 (hole).
    assert _cell_of(partial_evaluator(COMM, n)(cells, positions(cells, n), (1, 2)), n) == 2 * n + 1
    assert _oracle_result(COMM, cells, n, (1, 2)) == 2 * n + 1


def test_eval_partial_judges_filled_instances():
    n = 3
    cells = _partial_from([[0, 1, 2], [1, 2, 0], [2, 0, 1]], n)
    assert partial_evaluator(COMM, n)(cells, positions(cells, n), (1, 2)) == SAT
    assert partial_evaluator(ASSOC, n)(cells, positions(cells, n), (1, 1, 1)) == SAT
    bad = _partial_from([[0, 1, 2], [1, 0, 2], [2, 1, 0]], n)
    # 1*2 = 2 but 2*1 = 1 in this (non-Latin) grid.
    assert partial_evaluator(COMM, n)(bad, positions(bad, n), (1, 2)) == VIOLATED


def test_eval_partial_division_scans():
    n = 3
    # Row 1 has no cell equal to 0 yet; 1\0 blocks on the first hole.
    cells = _partial_from([[0, 1, 2], [1, -1, -1]], n)
    ldiv_prog = compile_identity("(x\\e) = y")
    ldiv = partial_evaluator(ldiv_prog, n)
    assert _cell_of(ldiv(cells, positions(cells, n), (1, 0)), n) == 1 * n + 1
    # Once the row is complete the division resolves.
    cells = _partial_from([[0, 1, 2], [1, 2, 0]], n)
    assert ldiv(cells, positions(cells, n), (1, 2)) == SAT
    # Column 1 has no cell equal to 2 yet; 2/1 blocks on its first hole.
    cells = _partial_from([[0, 1, 2], [1, 0, 2], [2, -1, -1]], n)
    rdiv_prog = compile_identity("(x/y) = z")
    rdiv = partial_evaluator(rdiv_prog, n)
    assert _cell_of(rdiv(cells, positions(cells, n), (2, 1, 0)), n) == 2 * n + 1


def test_eval_partial_division_violated_when_row_full():
    n = 3
    # Row 1 is complete, so 1\2 resolves to 1; the identity wants y = 0.
    cells = _partial_from([[0, 1, 2], [1, 2, 0]], n)
    prog = compile_identity("(x\\z) = y")
    assert partial_evaluator(prog, n)(cells, positions(cells, n), (1, 0, 2)) == VIOLATED
    # Row 1 of this non-Latin grid has no hole and no 2: 1\2 never resolves.
    cells = _partial_from([[0, 1, 2], [1, 0, 0]], n)
    assert partial_evaluator(prog, n)(cells, positions(cells, n), (1, 0, 2)) == VIOLATED
    assert _oracle_result(prog, cells, n, (1, 0, 2)) == VIOLATED


def test_positions_keep_the_first_occurrence():
    n = 3
    # Row 1 holds 0 twice and no 2; column 2 holds 0 twice and no 1.
    cells = _partial_from([[0, 1, 2], [1, 0, 0], [2, -1, 0]], n)
    pos = positions(cells, n)
    assert len(pos) == 2 * n * n
    for r in range(n):
        row = cells[r * n:(r + 1) * n]
        column = cells[r::n]
        for v in range(n):
            assert pos[r * n + v] == (row.index(v) if v in row else -1)
            assert pos[n * n + r * n + v] == (column.index(v) if v in column else -1)
    # 1\0 reads the first 0 of row 1, at column 1.
    prog = compile_identity("(x\\y) = z")
    assert partial_evaluator(prog, n)(cells, pos, (1, 0, 1)) == SAT


def test_compiled_functions_are_cached_per_order():
    prog = compile_identity("((x*y)*z) = (x*(y*z))")
    assert partial_evaluator(prog, 4) is partial_evaluator(prog, 4)
    assert partial_evaluator(prog, 4) is not partial_evaluator(prog, 5)
    assert nontrivial_assignments(prog, 4) is nontrivial_assignments(prog, 4)
    assert check_identity(cyclic(3), prog)
    checker = prog.compiled[None]
    assert check_identity(dihedral(3), prog)
    assert prog.compiled[None] is checker
    # The vector form is generated once, for every order that runs it,
    # and leaves the scalar form in place.
    assert "bytes" not in prog.compiled
    assert check_identity(cyclic(VECTOR_ORDER), prog)
    vector = prog.compiled["bytes"]
    assert vector is not checker
    assert check_identity(dihedral(8), prog) and holders(dihedral(8), prog, (1,), range(16))
    assert prog.compiled["bytes"] is vector and prog.compiled[None] is checker
    assert set(prog.compiled) == {None, "bytes", 4, 5}


def test_full_source_spells_both_forms():
    # Below VECTOR_ORDER the checker loops over every variable; from it
    # on, the innermost variable is the bytes of its range, and each term
    # that reads it is one translate of a vector.  Each form binds from q
    # just the tables its body reads.
    assert _full_source(ASSOC) == """\
def check(q, R0, R):
    rows = q.rows
    for v0 in R0:
        h0 = rows[v0]
        for v1 in R:
            h1 = rows[h0[v1]]
            h2 = rows[v1]
            for v2 in R:
                if h1[v2] != h0[h2[v2]]:
                    return False
    return True
"""
    assert _full_source(ASSOC, vector=True) == """\
def check(q, R0, R):
    rows = q.rows
    mrow = q.translations('*', 0)
    v2 = bytes(R)
    for v0 in R0:
        h0 = rows[v0]
        h3 = mrow[v0]
        for v1 in R:
            h1 = mrow[h0[v1]]
            h2 = mrow[v1]
            if v2.translate(h1) != v2.translate(h2).translate(h3):
                return False
    return True
"""
    buchsteiner = CATALOG["buchsteiner"].equations[0]
    assert buchsteiner.source == "(x\\((x*y)*z)) = ((y*(z*x))/x)"
    assert _full_source(buchsteiner) == """\
def check(q, R0, R):
    rows = q.rows
    ld = q.divisions()[0]
    rd = q.divisions()[1]
    for v0 in R0:
        h0 = rows[v0]
        h2 = ld[v0]
        for v1 in R:
            h1 = rows[h0[v1]]
            h3 = rows[v1]
            for v2 in R:
                if h2[h1[v2]] != rd[h3[rows[v2][v0]]][v0]:
                    return False
    return True
"""
    assert _full_source(buchsteiner, vector=True) == """\
def check(q, R0, R):
    rows = q.rows
    mrow = q.translations('*', 0)
    mcol = q.translations('*', 1)
    lrow = q.translations('\\\\', 0)
    rcol = q.translations('/', 1)
    v2 = bytes(R)
    for v0 in R0:
        h0 = rows[v0]
        h2 = lrow[v0]
        h3 = mcol[v0]
        h5 = rcol[v0]
        for v1 in R:
            h1 = mrow[h0[v1]]
            h4 = mrow[v1]
            if v2.translate(h1).translate(h2) != v2.translate(h3).translate(h4).translate(h5):
                return False
    return True
"""


def test_vector_form_builds_terms_that_read_the_innermost_variable_twice():
    # z*z has two vector operands, and y\y = e a side without the variable.
    square = compile_identity("(z*z) = (x*(y*z))")
    assert "bytes([rows[s][t] for s, t in zip(v2, v2)])" in _full_source(square, vector=True)
    unit = compile_identity("(y\\y) = e")
    assert "bytes((0,)) * len(v1)" in _full_source(unit, vector=True)
    for q in (cyclic(12), direct_product(cyclic(2), cyclic(7)), dihedral(8)):
        for prog in (square, unit, compile_identity("((x*x)*y) = (x*(x*y))")):
            assert check_identity(q, prog) == oracle_check_identity(q, prog), prog.source


# Every catalog equation and every program the search propagates.
PROGRAMS = tuple(
    {
        id(prog): prog
        for entry in CATALOG.values()
        for prog in entry.equations + propagation_programs(entry.name)
    }.values()
)


@settings(max_examples=60, deadline=None)
@given(loops())
def test_compiled_checker_matches_oracle(q):
    for prog in PROGRAMS:
        assert check_identity(q, prog) == oracle_check_identity(q, prog), prog.source


# The laws that decide the nuclei and the center, and the identities of
# the suite's two nuclear square rows, each with the tested element as x.
HOLDER_PROGRAMS = (structure._LEFT, structure._MIDDLE, structure._RIGHT, structure._COMMUTE,
                   *varieties._IDENTITIES["nuclear_square_left_translation"],
                   *varieties._IDENTITIES["osborn_nuclear_square_translation"])


@settings(max_examples=60, deadline=None)
@given(loops())
def test_holders_match_oracle(q):
    n = q.order
    for prog in HOLDER_PROGRAMS:
        for others in (range(n), range(1, n)):
            expected = tuple(
                a for a in range(n)
                if all(holds_at(q, prog, (a, *rest))
                       for rest in product(others, repeat=prog.nvars - 1)))
            assert holders(q, prog, range(n), others) == expected, prog.source


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_check_identity_over_some_x_matches_oracle(data):
    # The suite's nuclear square rows run the checker with x over the
    # elements whose square lies in the nucleus.
    q = data.draw(loops())
    n = q.order
    among = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    for prog in HOLDER_PROGRAMS:
        expected = all(holds_at(q, prog, (a, *rest))
                       for a in among for rest in product(range(n), repeat=prog.nvars - 1))
        assert check_identity(q, prog, among) == expected, prog.source


def _holders_oracle(q, prog, others):
    return tuple(a for a in range(q.order)
                 if all(holds_at(q, prog, (a, *rest))
                        for rest in product(others, repeat=prog.nvars - 1)))


@settings(max_examples=20, deadline=None)
@given(product_loops(VECTOR_ORDER, 18), st.data())
def test_vector_form_matches_oracle(q, data):
    # The properties above draw loops of order 6 or less, which run the
    # scalar form; these run the vector form.
    n = q.order
    assert VECTOR_ORDER <= n <= 18
    among = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    for prog in (*PROGRAMS, *HOLDER_PROGRAMS):
        held = _holders_oracle(q, prog, range(n))
        assert check_identity(q, prog) == (len(held) == n), prog.source
        assert check_identity(q, prog, among) == set(among).issubset(held), (prog.source, among)
        assert holders(q, prog, range(n), range(n)) == held, prog.source
        assert holders(q, prog, range(n), range(1, n)) == _holders_oracle(q, prog, range(1, n))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_partial_evaluator_matches_oracle(data):
    # Grids need not be Latin or have an identity row: the evaluator must
    # judge and block exactly where the oracle does on any cells.
    n = data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(st.integers(-1, n - 1), min_size=n * n, max_size=n * n))
    prog = data.draw(st.sampled_from(PROGRAMS))
    evaluate = partial_evaluator(prog, n)
    pos = positions(cells, n)
    for assign in product(range(n), repeat=prog.nvars):
        result = _cell_of(evaluate(cells, pos, assign), n)
        assert result == _oracle_result(prog, cells, n, assign), prog.source


@settings(max_examples=300, deadline=None)
@given(partial_latin_grids(), st.data())
def test_flagged_instances_stay_undetermined(grid, data):
    # The flag says no value at the blocking cell decides the instance:
    # the oracle must find it undetermined whatever value the row and
    # column of that cell still allow.
    n, cells = grid
    prog = data.draw(st.sampled_from(PROGRAMS))
    evaluate = partial_evaluator(prog, n)
    pos = positions(cells, n)
    for assign in product(range(n), repeat=prog.nvars):
        result = evaluate(cells, pos, assign)
        if result < n * n:
            continue
        cell = result - n * n
        r, c = divmod(cell, n)
        used = set(cells[r * n:(r + 1) * n]) | set(cells[c::n])
        for v in set(range(n)) - used:
            cells[cell] = v
            status, _ = eval_partial(prog, cells, n, assign)
            cells[cell] = -1
            assert status == UNDET, (prog.source, assign, v)


def _dropped(prog, n):
    kept = set(nontrivial_assignments(prog, n))
    return [a for a in product(range(n), repeat=prog.nvars) if a not in kept]


@settings(max_examples=300, deadline=None)
@given(partial_latin_grids(), st.data())
def test_dropped_instances_are_never_violated(grid, data):
    n, cells = grid
    prog = data.draw(st.sampled_from(PROGRAMS))
    for assign in _dropped(prog, n):
        status, _ = eval_partial(prog, cells, n, assign)
        assert status != ORACLE_VIOLATED, (prog.source, assign)


def test_dropped_instances_hold_on_corpus5(corpus5):
    for prog in PROGRAMS:
        for n in range(1, 6):
            dropped = _dropped(prog, n)
            for _loop_id, q in corpus5:
                if q.order == n:
                    assert all(holds_at(q, prog, a) for a in dropped), prog.source


def test_loop_laws_drop_tautologies():
    # Each law on its own folds every instance to t = t.
    for source in ("(e*x) = x", "(x*e) = x", "(e\\x) = x", "(x/e) = x", "(x\\x) = e",
                   "(x/x) = e", "(x*(x\\y)) = y", "((y/x)*x) = y", "(x\\(x*y)) = y",
                   "((y*x)/x) = y", "((x/y)\\x) = y", "(x/(y\\x)) = y"):
        assert nontrivial_assignments(compile_identity(source), 3) == (), source
    # Commutativity keeps only x != y, both not e; the left inverse
    # property drops x = e and y = e, where it reads (e/x)*x = e.
    assert nontrivial_assignments(COMM, 3) == ((1, 2), (2, 1))
    assert nontrivial_assignments(LIP, 3) == ((1, 1), (1, 2), (2, 1), (2, 2))


# Every catalog program and every program the theorem suite and the
# order-16 report check.
SUITE_PROGRAMS = tuple(
    {
        prog.source: prog
        for prog in (
            *(p for entry in CATALOG.values() for p in entry.equations + entry.prop_equations),
            *(p for progs in varieties._IDENTITIES.values() for p in progs),
        )
    }.values()
)
_SYMBOLS = {MUL: "*", LDIV: "\\", RDIV: "/"}


def _spell(prog, k, visited):
    """The text of term k, noting each term in ``visited`` after its operands."""
    op, a, b = prog.ops[k]
    if op == VAR:
        text = "xyzu"[a]
    elif op == CONST:
        text = "e"
    else:
        text = f"({_spell(prog, a, visited)}{_SYMBOLS[op]}{_spell(prog, b, visited)})"
    if k not in visited:
        visited.append(k)
    return text


def test_ops_spell_the_source_with_each_subterm_once():
    # The oracle evaluates prog.ops as they are; this checks the shared
    # subterms against the source text without going through the compiler.
    for prog in SUITE_PROGRAMS:
        visited = []
        lhs, rhs = _spell(prog, prog.lhs, visited), _spell(prog, prog.rhs, visited)
        assert f"{lhs}={rhs}" == prog.source.replace(" ", ""), prog.source
        assert len(set(prog.ops)) == len(prog.ops), prog.source
        assert visited == list(range(len(prog.ops))), prog.source


def test_mirror_spells_the_mirrored_source():
    # Products swap their operands, x\y becomes y/x and x/y becomes y\x,
    # and the variables keep their names.
    assert mirror(LIP).source == "((y*x)*(x\\e)) = y"
    assert mirror(ASSOC).source == "(z*(y*x)) = ((z*y)*x)"
    assert mirror(compile_identity("((x/y)\\e) = (y\\(x*e))")).source == "(e/(y\\x)) = ((e*x)/y)"


# Every catalog and suite program, and the laws of the nuclei and center.
MIRROR_PROGRAMS = (*SUITE_PROGRAMS, structure._LEFT, structure._MIDDLE, structure._RIGHT,
                   structure._COMMUTE)


@settings(max_examples=60, deadline=None)
@given(loops(), st.data())
def test_mirror_holds_exactly_where_the_program_holds_in_the_opposite_loop(q, data):
    # With every variable over the loop, and with x over a drawn set, as
    # the suite's rows and the nuclei range it.
    n, opp = q.order, opposite(q)
    among = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    for prog in MIRROR_PROGRAMS:
        twin = mirror(prog)
        assert mirror(twin).source == prog.source
        assert check_identity(q, twin) == oracle_check_identity(opp, prog), prog.source
        expected = all(holds_at(opp, prog, (a, *rest))
                       for a in among for rest in product(range(n), repeat=prog.nvars - 1))
        assert check_identity(q, twin, among) == expected, (prog.source, among)
