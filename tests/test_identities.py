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
from loop_strategies import loops, partial_latin_grids
from loopkit import structure, varieties
from loopkit.identities import (
    CONST,
    LDIV,
    MUL,
    RDIV,
    SAT,
    VAR,
    VIOLATED,
    check_identity,
    compile_identity,
    holders,
    nontrivial_assignments,
    partial_evaluator,
    positions,
)
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
    q = dihedral(4)
    assert check_identity(q, ASSOC)
    assert q._ldiv is None and q._rdiv is None
    assert check_identity(q, LIP)
    assert q._ldiv is not None


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
