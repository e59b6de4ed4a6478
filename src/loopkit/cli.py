"""Command line surface: inspect tables, run searches and theorem
suites, and query the integer-pair loop built from a prime.

Exit codes: 0 success, 1 usage or input error, 2 budget exceeded,
3 theorem suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import bk, structure, varieties
from .core import canonical_key, dump_path, dumps, load_path, principal_isotope
from .errors import BudgetExceeded, LoopError, NotNormal
from .search import SearchSpec
from .search import search as run_search

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_FAIL = 3

_NAME_ALIASES = {"assoc": "associative", "comm": "commutative"}


class _Parser(argparse.ArgumentParser):
    """argparse subclass whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_names(text):
    names = []
    for part in text.split(","):
        part = part.strip()
        if part:
            names.append(_NAME_ALIASES.get(part, part))
    return tuple(names)


def _format_set(s):
    return "{" + ", ".join(str(x) for x in s.members()) + "}"


# ---------------------------------------------------------------------------
# check


def _nucleus_quotient_line(ctx):
    if len(ctx.nucleus) == ctx.q.order:
        return "nucleus quotient: trivial (nucleus is everything)"
    if len(ctx.nucleus) == 1:
        return "nucleus quotient: n/a (nucleus is trivial)"
    try:
        factor = ctx.factor
    except NotNormal:
        return "nucleus quotient: n/a (nucleus not normal)"
    if factor.flag("associative") and factor.flag("commutative"):
        return "nucleus quotient: abelian group"
    return "nucleus quotient: not an abelian group"


def cmd_check(args):
    q = load_path(args.path)
    ctx = varieties.Context(q)
    print(f"path: {args.path}")
    print(f"order: {q.order}")
    for kind, nuc in zip(("left", "middle", "right"), ctx.nuclei):
        print(f"{kind} nucleus: {_format_set(nuc)}")
    print(f"nucleus: {_format_set(ctx.nucleus)}")
    print(f"center: {_format_set(ctx.center)}")
    ncls = ctx.nilpotency_class
    print(f"nilpotency class: {ncls if ncls is not None else 'none'}")
    print(_nucleus_quotient_line(ctx))
    for name in varieties.catalog_names():
        if name != "gloop" or args.gloop:
            print(f"{name}: {'yes' if ctx.flag(name) else 'no'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# search


def cmd_search(args):
    required = _parse_names(args.require) if args.require else ()
    forbidden = _parse_names(args.forbid) if args.forbid else ()
    mode = {"count": "count", "count-iso": "count", "collect": "collect", "first": "first"}[args.mode]
    isomorphs = "up_to_iso" if args.mode == "count-iso" else "reduced"
    spec = SearchSpec(order=args.order, required=required, forbidden=forbidden,
                      mode=mode, isomorphs=isomorphs, shards=args.shards)
    result = run_search(spec, budget_nodes=args.budget_nodes, budget_seconds=args.budget_seconds)
    if args.mode in ("collect", "first"):
        for i, q in enumerate(result.found):
            path = os.path.join(args.out, f"order{args.order}-{i}.loop")
            dump_path(q, path)
            print(f"wrote {path}")
    print(result.summary())
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _corpus(max_order, budget_nodes, budget_seconds):
    for n in range(1, max_order + 1):
        spec = SearchSpec(order=n, mode="collect", isomorphs="up_to_iso")
        res = run_search(spec, budget_nodes=budget_nodes, budget_seconds=budget_seconds)
        for i, q in enumerate(res.found):
            yield f"order{n}-{i}", q


def cmd_verify(args):
    if not args.paths and args.corpus is None:
        print("verify: provide table paths or --corpus N", file=sys.stderr)
        return EXIT_USAGE
    loops = []
    for path in args.paths:
        name = os.path.basename(path)
        if name.endswith(".loop"):
            name = name[: -len(".loop")]
        loops.append((name, load_path(path)))
    if args.corpus is not None:
        loops.extend(_corpus(args.corpus, args.budget_nodes, args.budget_seconds))
    failures = 0
    for loop_id, q in loops:
        report = varieties.verify_theorems(q, loop_id=loop_id)
        print(report.format())
        failures += len(report.failures())
        if q.order == 16 and varieties.is_proper_osborn(q):
            extra = varieties.order16_report(q, loop_id=loop_id)
            print(extra.format())
            failures += len(extra.failures())
    print(f"checked {len(loops)} loops, {failures} failures")
    return EXIT_FAIL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# construct


# The operands each operation takes.
_CONSTRUCT_OPERANDS = {
    "mul": "x y", "ldiv": "x y", "rdiv": "x y", "inner": "KIND x y s", "witness": "", "audit": "",
}


def cmd_construct(args):
    params = bk.BKParams(args.p)
    op, operands = args.op, args.args
    expected = _CONSTRUCT_OPERANDS[op]
    if len(operands) != len(expected.split()):
        print(f"construct {op}: expected {expected or 'no operands'}", file=sys.stderr)
        return EXIT_USAGE
    if op in ("mul", "ldiv", "rdiv"):
        u, v = map(bk.parse_element, operands)
        fn = {"mul": bk.bk_mul, "ldiv": bk.bk_ldiv, "rdiv": bk.bk_rdiv}[op]
        print(bk.format_element(fn(params, u, v)))
        return EXIT_OK
    if op == "inner":
        # An unknown KIND raises standard_inner's ValueError, exit code 1.
        kind, *elements = operands
        x, y, s = map(bk.parse_element, elements)
        print(bk.format_element(bk.standard_inner(params, kind, x, y, s)))
        return EXIT_OK
    if op == "witness":
        x, y, s0, pre = bk.nonnormal_witness(params)
        print(f"x={bk.format_element(x)} y={bk.format_element(y)} "
              f"s0={bk.format_element(s0)} preimage={bk.format_element(pre)}")
        return EXIT_OK
    # The parser's choices leave "audit" as the only other operation.
    report = bk.window_audit(params)
    print(report.format())
    print(f"{len(report.violations)} violations")
    return EXIT_OK if report.ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# isotopes


def cmd_isotopes(args):
    q = load_path(args.path)
    n = q.order
    start = time.monotonic()
    classes = set()
    for a in range(n):
        for b in range(n):
            if args.budget_seconds is not None and time.monotonic() - start > args.budget_seconds:
                raise BudgetExceeded(a * n + b, time.monotonic() - start)
            classes.add(canonical_key(principal_isotope(q, a, b)))
    print(f"order: {n}")
    print(f"principal isotopes: {n * n}")
    print(f"isomorphism classes: {len(classes)}")
    print(f"gloop: {'yes' if len(classes) == 1 else 'no'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# quotient


_NAMED_SUBLOOPS = {
    "center": structure.center,
    "nucleus": structure.nucleus,
    "left-nucleus": structure.left_nucleus,
    "middle-nucleus": structure.middle_nucleus,
    "right-nucleus": structure.right_nucleus,
}


def cmd_quotient(args):
    q = load_path(args.path)
    if args.by in _NAMED_SUBLOOPS:
        s = _NAMED_SUBLOOPS[args.by](q)
    else:
        try:
            ids = [int(t) for t in args.by.split(",")]
        except ValueError:
            print(f"quotient: --by must name a subloop or list ids, got {args.by!r}",
                  file=sys.stderr)
            return EXIT_USAGE
        s = structure.SubloopSet.from_members(q.order, ids)
    table, coset_of = structure.quotient(q, s)
    if args.out:
        dump_path(table, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(dumps(table))
    print(f"cosets: {' '.join(str(c) for c in coset_of)}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    ap = _Parser(prog="loopkit", description=__doc__.splitlines()[0])
    ap.add_argument("--list-varieties", action="store_true",
                    help="print the variety catalog and exit")
    sub = ap.add_subparsers(dest="command", parser_class=_Parser)

    c = sub.add_parser("check", help="report structure and variety flags of a table")
    c.add_argument("path")
    c.add_argument("--gloop", action="store_true", help="also decide the isotopy-invariance flag")
    c.set_defaults(fn=cmd_check)

    s = sub.add_parser("search", help="enumerate loop tables under constraints")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--require", default="", help="comma-separated variety ids")
    s.add_argument("--forbid", default="", help="comma-separated variety ids")
    s.add_argument("--mode", choices=("count", "count-iso", "collect", "first"), default="count")
    s.add_argument("--shards", type=int, default=1)
    s.add_argument("--out", default=".", help="directory for witness files")
    s.add_argument("--budget-nodes", type=int, default=None)
    s.add_argument("--budget-seconds", type=float, default=None)
    s.set_defaults(fn=cmd_search)

    v = sub.add_parser("verify", help="run the theorem suite over tables")
    v.add_argument("paths", nargs="*")
    v.add_argument("--corpus", type=int, default=None,
                   help="also verify every loop up to isomorphism through this order")
    v.add_argument("--budget-nodes", type=int, default=None)
    v.add_argument("--budget-seconds", type=float, default=None)
    v.set_defaults(fn=cmd_verify)

    k = sub.add_parser("construct", help="query the integer-pair loop for a prime")
    k.add_argument("--p", type=int, required=True)
    k.add_argument("op", choices=tuple(_CONSTRUCT_OPERANDS))
    k.add_argument("args", nargs="*")
    k.set_defaults(fn=cmd_construct)

    i = sub.add_parser("isotopes", help="classify principal isotopes of a table")
    i.add_argument("path")
    i.add_argument("--budget-seconds", type=float, default=None)
    i.set_defaults(fn=cmd_isotopes)

    t = sub.add_parser("quotient", help="factor a table by a normal subloop")
    t.add_argument("path")
    t.add_argument("--by", required=True,
                   help="center | nucleus | left-nucleus | middle-nucleus | right-nucleus "
                        "| comma-separated ids")
    t.add_argument("--out", default=None, help="write the quotient table here")
    t.set_defaults(fn=cmd_quotient)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.list_varieties:
        for name in varieties.catalog_names():
            entry = varieties.get_entry(name)
            print(f"{name}: {entry.summary}")
        return EXIT_OK
    if args.command is None:
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (LoopError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
