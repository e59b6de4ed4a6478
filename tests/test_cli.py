"""Command line behavior and exit codes."""

import re
from collections import Counter
from dataclasses import replace

import pytest

from loopkit import cli, structure, varieties
from loopkit.core import dump_path, isomorphic, loads, principal_isotope
from loopkit.search import SearchSpec, search
from loopkit.tables import cyclic, dihedral
from loopkit.varieties import TheoremReport
from normality_oracle import is_normal_subloop as oracle_is_normal
from search_oracle import search_slices_serially


@pytest.fixture()
def z4_file(tmp_path):
    path = tmp_path / "z4.loop"
    dump_path(cyclic(4), str(path))
    return str(path)


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.loop"
    dump_path(dihedral(3), str(path))
    return str(path)


@pytest.fixture()
def z16_file(tmp_path):
    path = tmp_path / "z16.loop"
    dump_path(cyclic(16), str(path))
    return str(path)


def test_list_varieties(capsys):
    assert cli.main(["--list-varieties"]) == 0
    out = capsys.readouterr().out
    assert "osborn:" in out
    assert "moufang:" in out


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 1


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_check_reports_structure(z4_file, capsys):
    assert cli.main(["check", z4_file]) == 0
    out = capsys.readouterr().out
    assert "order: 4" in out
    assert "associative: yes" in out
    assert "commutative: yes" in out
    assert "center: {0, 1, 2, 3}" in out
    assert "nilpotency class: 1" in out
    assert "gloop" not in out


def _check_output(q, tmp_path, capsys):
    path = tmp_path / "q.loop"
    dump_path(q, str(path))
    assert cli.main(["check", str(path)]) == 0
    return capsys.readouterr().out


def test_check_nucleus_quotient_abelian(cc6, tmp_path, capsys):
    assert "nucleus quotient: abelian group" in _check_output(cc6, tmp_path, capsys)


def test_check_nucleus_not_normal(classes6, tmp_path, capsys):
    # Exactly one order-6 class has a proper nontrivial nucleus that the
    # Mlt-stabilizer oracle finds not normal; its nucleus has order 2.
    nuclei = [(q, structure.nucleus(q)) for _id, q in classes6]
    odd = [(q, nuc) for q, nuc in nuclei if 1 < len(nuc) < 6 and not oracle_is_normal(q, nuc)]
    assert [len(nuc) for _q, nuc in odd] == [2]
    out = _check_output(odd[0][0], tmp_path, capsys)
    assert "nucleus quotient: n/a (nucleus not normal)" in out


def test_check_decides_the_catalog_in_one_context(m12, tmp_path, capsys, monkeypatch):
    # The catalog flags share one context, which decides each identity
    # once: a conjunction reads its parts' verdicts, and the separate
    # entries osborn and osborn1 share the equation both list.
    evaluated = Counter()
    tables = []  # holds every table, so no id is reused for another
    real = varieties.check_identity

    def counting(q, prog, among=None):
        tables.append(q)
        evaluated[id(q), prog.source, None if among is None else frozenset(among)] += 1
        return real(q, prog, among)

    monkeypatch.setattr(varieties, "check_identity", counting)
    _check_output(m12, tmp_path, capsys)
    assert sum(evaluated.values()) == 34
    assert max(evaluated.values()) == 1


def test_check_decides_each_structure_once(m12, tmp_path, capsys, holders_runs):
    # The three nuclei take 3(n - 1) runs, and the center n - 1 for
    # commutativity and two more for each nonzero a that commutes.  The
    # nucleus and the nilpotency class reuse them: Z16 is its own center.
    for q, runs in ((cyclic(16), 45 + 45), (m12, 33 + 11)):
        holders_runs[0] = 0
        _check_output(q, tmp_path, capsys)
        assert holders_runs[0] == runs


def test_check_gloop_flag(z4_file, capsys):
    assert cli.main(["check", z4_file, "--gloop"]) == 0
    assert "gloop: yes" in capsys.readouterr().out


def test_check_missing_file(capsys):
    assert cli.main(["check", "does-not-exist.loop"]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_corrupted_file(tmp_path, capsys):
    bad = tmp_path / "bad.loop"
    bad.write_text("3\n0 1 2\n1 2 0\n1 2 0\n")
    assert cli.main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "col" in err or "row" in err


def test_search_count_iso(capsys):
    assert cli.main(["search", "--order", "5", "--mode", "count-iso"]) == 0
    out = capsys.readouterr().out
    assert "found=6" in out
    assert "order=5" in out


def test_search_sharded_count_iso(capsys):
    assert cli.main(["search", "--order", "5", "--mode", "count-iso", "--shards", "3"]) == 0
    assert "found=6 " in capsys.readouterr().out
    # Slices return canonical tables even when counting, merged on their rows.
    for k in (2, 3, 4):
        spec = SearchSpec(order=5, mode="count", isomorphs="up_to_iso")
        pooled = search(replace(spec, shards=k))
        got = ([q.rows for q in pooled.found], pooled.count, pooled.visited, pooled.complete)
        assert got == search_slices_serially(spec, k)
        assert pooled.count == 6


def test_search_first_writes_witness(tmp_path, capsys):
    code = cli.main([
        "search", "--order", "6", "--require", "cc", "--forbid", "assoc",
        "--mode", "first", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    witness = loads((tmp_path / "order6-0.loop").read_text())
    assert varieties.check_variety(witness, "cc")
    assert not varieties.check_variety(witness, "associative")


def test_search_count_mode_writes_nothing(tmp_path, capsys):
    code = cli.main(["search", "--order", "4", "--mode", "count", "--out", str(tmp_path)])
    assert code == 0
    assert "found=4" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_search_unknown_variety(capsys):
    assert cli.main(["search", "--order", "4", "--require", "nope"]) == 1
    assert "error:" in capsys.readouterr().err


def test_search_budget_exceeded(capsys):
    assert cli.main(["search", "--order", "6", "--budget-nodes", "100"]) == 2
    assert "budget exceeded" in capsys.readouterr().err


def test_search_sharded_budget_is_global(capsys):
    # Two shards of 70,000 nodes each would finish (they need 58,530 and
    # 40,748); each gets 35,000 of the global budget and runs out.
    assert cli.main(["search", "--order", "6", "--shards", "2", "--budget-nodes", "70000"]) == 2
    err = capsys.readouterr().err
    # The nodes of both shards are reported, not those of the first alone.
    assert int(re.search(r"after (\d+) nodes", err).group(1)) >= 70000


def test_search_sharded_collect(tmp_path, capsys):
    code = cli.main([
        "search", "--order", "5", "--require", "commutative", "--mode", "collect",
        "--shards", "2", "--out", str(tmp_path),
    ])
    assert code == 0
    files = sorted(tmp_path.glob("*.loop"))
    assert len(files) == 6
    seen = {loads(f.read_text()) for f in files}
    assert len(seen) == 6


def test_search_sharded_first_keeps_one_witness(tmp_path, capsys):
    code = cli.main([
        "search", "--order", "5", "--mode", "first", "--shards", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "found=1 " in capsys.readouterr().out
    assert [f.name for f in tmp_path.glob("*.loop")] == ["order5-0.loop"]
    # The witness is the first in slice order, and, as unsharded, a
    # "first" run that stopped early is not complete.
    for k in (2, 3, 4):
        spec = SearchSpec(order=5, mode="first")
        pooled = search(replace(spec, shards=k))
        got = ([q.rows for q in pooled.found], pooled.count, pooled.visited, pooled.complete)
        assert got == search_slices_serially(spec, k)
        assert (pooled.count, pooled.complete, pooled.shard_slice) == (1, False, ())
        counted = search(SearchSpec(order=5, mode="count", shards=k))
        assert (counted.count, counted.complete, counted.shard_slice) == (56, True, ())


@pytest.mark.parametrize("shards", ["0", "-2"])
def test_search_rejects_shard_counts_below_one(shards, capsys):
    assert cli.main(["search", "--order", "4", "--shards", shards]) == 1
    assert "shards must be at least 1" in capsys.readouterr().err


def test_verify_requires_input(capsys):
    assert cli.main(["verify"]) == 1


def test_verify_corpus_passes(z4_file, capsys):
    assert cli.main(["verify", z4_file, "--corpus", "3"]) == 0
    out = capsys.readouterr().out
    assert "z4 osborn_eightway_agreement PASS" in out
    assert "order3-0" in out
    assert "FAIL" not in out
    assert "checked 4 loops, 0 failures" in out


def test_verify_exit_three_on_failure(z4_file, capsys, monkeypatch):
    def fake(q, loop_id="loop"):
        return TheoremReport(loop_id, [("made_up_check", "FAIL")])

    monkeypatch.setattr(varieties, "verify_theorems", fake)
    assert cli.main(["verify", z4_file]) == 3
    out = capsys.readouterr().out
    assert "z4 made_up_check FAIL" in out


def test_verify_order16_gate_not_triggered_for_group(z16_file, capsys):
    assert cli.main(["verify", z16_file]) == 0
    out = capsys.readouterr().out
    assert "center_order_two" not in out


def test_verify_order16_gate_runs_when_proper(z16_file, capsys, monkeypatch):
    monkeypatch.setattr(varieties, "is_proper_osborn", lambda q: q.order == 16)
    code = cli.main(["verify", z16_file])
    out = capsys.readouterr().out
    assert "z16 center_order_two FAIL" in out
    assert "z16 fourth_power_translations no" in out
    assert code == 3


def test_construct_mul(capsys):
    assert cli.main(["construct", "--p", "2", "mul", "(1,3)", "(1,4)"]) == 0
    assert capsys.readouterr().out.strip() == "(0,14)"


def test_construct_divisions(capsys):
    assert cli.main(["construct", "--p", "2", "ldiv", "(1,0)", "(0,1)"]) == 0
    assert capsys.readouterr().out.strip() == "(3,0)"
    assert cli.main(["construct", "--p", "2", "rdiv", "(0,1)", "(3,0)"]) == 0
    assert capsys.readouterr().out.strip() == "(1,0)"


def test_construct_inner(capsys):
    assert cli.main(["construct", "--p", "2", "inner", "LL", "(1,0)", "(1,0)", "(0,1)"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("(0,")


def test_construct_witness(capsys):
    assert cli.main(["construct", "--p", "2", "witness"]) == 0
    line = capsys.readouterr().out.strip()
    assert line == "x=(1,0) y=(1,0) s0=(0,1) preimage=(2,0)"


def test_construct_witness_p3(capsys):
    assert cli.main(["construct", "--p", "3", "witness"]) == 0
    line = capsys.readouterr().out.strip()
    assert line == "x=(1,0) y=(-1,0) s0=(0,1) preimage=(-6,1)"


def test_construct_witness_p7(capsys):
    assert cli.main(["construct", "--p", "7", "witness"]) == 0
    line = capsys.readouterr().out.strip()
    assert line == "x=(1,0) y=(-1,0) s0=(0,1) preimage=(-42,1)"


def test_construct_audit(capsys):
    assert cli.main(["construct", "--p", "3", "audit"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("0 violations")


def test_construct_bad_element(capsys):
    assert cli.main(["construct", "--p", "2", "mul", "(1;3)", "(1,4)"]) == 1
    assert cli.main(["construct", "--p", "2", "mul", "(1,3)"]) == 1
    assert cli.main(["construct", "--p", "4", "mul", "(1,3)", "(1,4)"]) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "--p", "2", "bogus"])
    assert exc.value.code == 1


def test_construct_wrong_operand_count(capsys):
    # Any operand count but an operation's own is a usage error, and so is
    # an unknown kind of inner mapping.
    for op, count in (("mul", 2), ("ldiv", 2), ("rdiv", 2), ("inner", 4),
                      ("witness", 0), ("audit", 0)):
        for k in set(range(6)) - {count}:
            assert cli.main(["construct", "--p", "2", op, *["(1,0)"] * k]) == 1, (op, k)
            assert f"construct {op}: expected" in capsys.readouterr().err
    assert cli.main(["construct", "--p", "2", "inner", "XX", "(1,0)", "(1,0)", "(0,1)"]) == 1
    assert "unknown standard inner kind 'XX'" in capsys.readouterr().err


def test_isotopes_of_group(z4_file, capsys):
    assert cli.main(["isotopes", z4_file]) == 0
    out = capsys.readouterr().out
    assert "principal isotopes: 16" in out
    assert "isomorphism classes: 1" in out
    assert "gloop: yes" in out


def test_isotopes_output_counts_classes_by_pairwise_isomorphism(q5, cc6, tmp_path, capsys):
    # The class count read off canonical keys, against one found by
    # testing each principal isotope for isomorphism with every class so far.
    for name, q in (("z4", cyclic(4)), ("s3", dihedral(3)), ("q5", q5), ("cc6", cc6)):
        reps = []
        for a in range(q.order):
            for b in range(q.order):
                iso = principal_isotope(q, a, b)
                if not any(isomorphic(iso, r) for r in reps):
                    reps.append(iso)
        path = tmp_path / f"{name}.loop"
        dump_path(q, str(path))
        assert cli.main(["isotopes", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"order: {q.order}\nprincipal isotopes: {q.order ** 2}\n"
            f"isomorphism classes: {len(reps)}\ngloop: {'yes' if len(reps) == 1 else 'no'}\n"), name


def test_isotopes_budget_exceeded(z4_file, capsys):
    assert cli.main(["isotopes", z4_file, "--budget-seconds", "0"]) == 2
    assert "budget exceeded" in capsys.readouterr().err


def test_quotient_by_named_subloop(s3_file, capsys):
    assert cli.main(["quotient", s3_file, "--by", "0,1,2"]) == 0
    out = capsys.readouterr().out
    assert loads(out).order == 2


def test_quotient_by_listed_ids(tmp_path, capsys):
    path = tmp_path / "z6.loop"
    dump_path(cyclic(6), str(path))
    assert cli.main(["quotient", str(path), "--by", "0,3"]) == 0
    assert loads(capsys.readouterr().out).order == 3


def test_quotient_rejects_malformed_ids(s3_file, capsys):
    assert cli.main(["quotient", s3_file, "--by", "0,x"]) == 1
    assert "quotient: --by must name a subloop or list ids" in capsys.readouterr().err


def test_quotient_not_normal(s3_file, capsys):
    assert cli.main(["quotient", s3_file, "--by", "0,3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_quotient_writes_file(s3_file, tmp_path, capsys):
    out_path = tmp_path / "quot.loop"
    assert cli.main(["quotient", s3_file, "--by", "center", "--out", str(out_path)]) == 0
    assert loads(out_path.read_text()).order == 6
    assert capsys.readouterr().out == f"wrote {out_path}\n"
    assert cli.main(["quotient", s3_file, "--by", "center"]) == 0
    assert out_path.read_text(encoding="utf-8") == capsys.readouterr().out
