"""Identity compiler and the compiled full and partial evaluators, against
the interpreted oracle in ``identity_oracle``."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identity_oracle import SAT as ORACLE_SAT
from identity_oracle import UNDET, eval_partial, holds_at
from identity_oracle import check_identity as oracle_check_identity
from loop_strategies import loops
from loopkit.identities import (
    SAT,
    VIOLATED,
    check_identity,
    compile_identity,
    partial_evaluator,
)
from loopkit.tables import cyclic, dihedral
from loopkit.varieties import CATALOG

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
    assert partial_evaluator(COMM, n)(cells, (1, 2)) == 2 * n + 1
    assert _oracle_result(COMM, cells, n, (1, 2)) == 2 * n + 1


def test_eval_partial_judges_filled_instances():
    n = 3
    cells = _partial_from([[0, 1, 2], [1, 2, 0], [2, 0, 1]], n)
    assert partial_evaluator(COMM, n)(cells, (1, 2)) == SAT
    assert partial_evaluator(ASSOC, n)(cells, (1, 1, 1)) == SAT
    bad = _partial_from([[0, 1, 2], [1, 0, 2], [2, 1, 0]], n)
    # 1*2 = 2 but 2*1 = 1 in this (non-Latin) grid.
    assert partial_evaluator(COMM, n)(bad, (1, 2)) == VIOLATED


def test_eval_partial_division_scans():
    n = 3
    # Row 1 has no cell equal to 0 yet; 1\0 blocks on the first hole.
    cells = _partial_from([[0, 1, 2], [1, -1, -1]], n)
    ldiv_prog = compile_identity("(x\\e) = y")
    assert partial_evaluator(ldiv_prog, n)(cells, (1, 0)) == 1 * n + 1
    # Once the row is complete the division resolves.
    cells = _partial_from([[0, 1, 2], [1, 2, 0]], n)
    assert partial_evaluator(ldiv_prog, n)(cells, (1, 2)) == SAT
    # Column 1 has no cell equal to 2 yet; 2/1 blocks on its first hole.
    cells = _partial_from([[0, 1, 2], [1, 0, 2], [2, -1, -1]], n)
    rdiv_prog = compile_identity("(x/y) = z")
    assert partial_evaluator(rdiv_prog, n)(cells, (2, 1, 0)) == 2 * n + 1


def test_eval_partial_division_violated_when_row_full():
    n = 3
    # Row 1 is complete, so 1\2 resolves to 1; the identity wants y = 0.
    cells = _partial_from([[0, 1, 2], [1, 2, 0]], n)
    prog = compile_identity("(x\\z) = y")
    assert partial_evaluator(prog, n)(cells, (1, 0, 2)) == VIOLATED
    # Row 1 of this non-Latin grid has no hole and no 2: 1\2 never resolves.
    cells = _partial_from([[0, 1, 2], [1, 0, 0]], n)
    assert partial_evaluator(prog, n)(cells, (1, 0, 2)) == VIOLATED
    assert _oracle_result(prog, cells, n, (1, 0, 2)) == VIOLATED


def test_compiled_functions_are_cached_per_order():
    prog = compile_identity("((x*y)*z) = (x*(y*z))")
    assert partial_evaluator(prog, 4) is partial_evaluator(prog, 4)
    assert partial_evaluator(prog, 4) is not partial_evaluator(prog, 5)
    assert check_identity(cyclic(3), prog)
    checker = prog.compiled[None]
    assert check_identity(dihedral(3), prog)
    assert prog.compiled[None] is checker


# Every catalog equation and every program the search propagates.
PROGRAMS = tuple(
    {
        id(prog): prog
        for entry in CATALOG.values()
        for prog in entry.equations + entry.propagation_programs()
    }.values()
)


@settings(max_examples=60, deadline=None)
@given(loops())
def test_compiled_checker_matches_oracle(q):
    for prog in PROGRAMS:
        assert check_identity(q, prog) == oracle_check_identity(q, prog), prog.source


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_partial_evaluator_matches_oracle(data):
    # Grids need not be Latin or have an identity row: the evaluator must
    # judge and block exactly where the oracle does on any cells.
    n = data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(st.integers(-1, n - 1), min_size=n * n, max_size=n * n))
    prog = data.draw(st.sampled_from(PROGRAMS))
    evaluate = partial_evaluator(prog, n)
    for assign in product(range(n), repeat=prog.nvars):
        assert evaluate(cells, assign) == _oracle_result(prog, cells, n, assign), prog.source
