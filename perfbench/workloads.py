"""The benchmark's workloads: set-up from a seed, the jobs, and their answers.

A workload is a fixed list of jobs; each job is one unit of user work
(one search slice, one check of one loop, one audit).  Set-up builds
every input a job needs from the seed, so a job only calls into loopkit.
Every call a job makes into a loopkit layer goes through ``t.call``,
which records a span in traced runs.

Each workload has a full job list, which covers the whole of every
search and every loop, and a timed job list, which keeps a fixed share
of each group of jobs (every k-th slice, every k-th loop) so that one
pass takes a few seconds and a run can repeat it.  ``make_pins.py`` pins
and checks the full list; the runner times the other.

A job returns its answer as plain JSON data that does not depend on the
seed; ``pins.json`` holds the answers measured when the benchmark was
written, and the runner compares the two.  The rationale for each
workload is in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from loopkit import bk, cli, core, perms, structure, tables
from loopkit.search import SearchSpec, canonical_key, minimal_order, search
from loopkit.identities import check_identity
from loopkit.varieties import CATALOG, check_variety, verify_theorems


CLASSES = Path(__file__).resolve().parent / "classes.json"


@dataclass(frozen=True)
class Job:
    """One unit of user work; ``run(t)`` returns the job's answer."""

    id: str
    run: object


def pick(items, stride, full, offset=0):
    """Every item of the full list; else every ``stride``-th, from ``offset``."""
    return list(items) if full else list(items)[offset % stride::stride]


# ---------------------------------------------------------------------------
# span counts taken from results


def _search_info(res):
    return {"nodes": res.visited, "found": res.count}


def _canonical_info(order):
    return lambda key: {f"o{order}": 1}


def _group_info(group):
    return {"elements": len(group)}


# ---------------------------------------------------------------------------
# shared inputs


def relabel(q, rng):
    """q under a random relabeling of its elements that fixes 0."""
    n = q.order
    p = [0] + rng.sample(range(1, n), n - 1)
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[p[x]][p[y]] = p[q.rows[x][y]]
    return core.LoopTable(rows)


def small_classes():
    """The 120 isomorphism classes of order 1 to 6, by id, in search order.

    They are read from ``classes.json``, written by make_pins.py from
    loopkit's own up-to-isomorphism search, so that the inputs do not move
    when the search changes.
    """
    with open(CLASSES, encoding="utf-8") as fh:
        return [(cid, core.LoopTable(rows)) for cid, rows in json.load(fh).items()]


def search_classes():
    """The classes as loopkit's search finds them, for classes.json."""
    out = {}
    for n in range(1, 7):
        spec = SearchSpec(n, mode="collect", isomorphs="up_to_iso")
        for i, q in enumerate(search(spec).found):
            out[f"o{n}.{i:03d}"] = [list(row) for row in q.rows]
    return out


def _cc6():
    """The smallest nonassociative conjugacy-closed loop (order 6)."""
    return minimal_order(("cc",), ("associative",))[1]


# ---------------------------------------------------------------------------
# screen: existence screens driven by identity propagation

# One slice per length-4 row-1 prefix at order 7 (213 of them) and at
# order 6 (64), so every slice is a single prefix.
OSBORN7_SLICES = 213
ORDER6_SLICES = 64
# Every k-th slice is timed: 27 of the 213 order-7 slices, and 8 of the 64
# slices of each order-6 screen.
OSBORN7_STRIDE = 8
ORDER6_STRIDE = 8
ORDER6_SCREENS = (
    ("osborn", "cc,moufang"),
    ("cc", "associative"),
    ("associative", ""),
    ("commutative", ""),
    ("moufang", ""),
    ("lbol", ""),
    ("rbol", ""),
    ("lc", ""),
    ("rc", ""),
    ("lip", ""),
    ("ip", ""),
    ("flx", ""),
    ("wip", ""),
    ("buchsteiner", ""),
    ("aaip", ""),
)
CLI_ARGV = ("search", "--order", "5", "--require", "osborn", "--forbid", "cc,moufang",
            "--shards", "2")


def _names(text):
    return tuple(text.split(",")) if text else ()


def _count(spec, t):
    return t.call("search.search", search, spec, info=_search_info).count


def _minimal_cc(t):
    order, witness = t.call("search.minimal_order", minimal_order, ("cc",), ("associative",))
    return [order, check_variety(witness, "cc") and not check_variety(witness, "associative")]


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cli_info(result):
    return {"elapsed": float(re.search(r"elapsed=([0-9.]+)", result[1]).group(1))}


def _cli_search(t):
    code, text = t.call("cli.main", _run_cli, CLI_ARGV, info=_cli_info)
    return [code, int(re.search(r"found=(\d+)", text).group(1))]


def screen(rng, full):
    jobs = []
    for i in pick(range(OSBORN7_SLICES), OSBORN7_STRIDE, full):
        spec = SearchSpec(7, ("osborn",), ("cc", "moufang"), mode="count",
                          shard_slice=(i, OSBORN7_SLICES))
        jobs.append(Job(f"osborn7.slice{i:03d}", partial(_count, spec)))
    for s, (req, forb) in enumerate(ORDER6_SCREENS):
        for i in pick(range(ORDER6_SLICES), ORDER6_STRIDE, full, offset=s):
            spec = SearchSpec(6, _names(req), _names(forb), mode="count",
                              shard_slice=(i, ORDER6_SLICES))
            name = f"count6.{req}-{forb or 'none'}.slice{i:02d}"
            jobs.append(Job(name, partial(_count, spec)))
    jobs.append(Job("minimal_order.cc-associative", _minimal_cc))
    jobs.append(Job("cli.search5.shards2", _cli_search))
    return jobs


# ---------------------------------------------------------------------------
# classify: enumeration without identities, plus isomorphism

RELABELED_PER_ORDER = 40
# Slices per order from which the seed picks tables; any count partitions
# the search, and these give slices of one or a few row-1 prefixes.
SLICES = {7: 84, 8: 210}
# Every k-th order-6 slice of each search is timed.
COLLECT6_STRIDE = 8
COUNT6_STRIDE = 4
TALLY6_STRIDE = 8


def _tally(spec, t):
    res = t.call("search.search", search, spec, info=_search_info)
    tally = {}
    for q in res.found:
        nuc = t.call("structure.nucleus", structure.nucleus, q)
        cen = t.call("structure.center", structure.center, q)
        key = f"{len(nuc)},{len(cen)}"
        tally[key] = tally.get(key, 0) + 1
    return tally


def _isotopes(q, t):
    n = q.order
    keys = set()
    for a in range(n):
        for b in range(n):
            iso = t.call("core.principal_isotope", core.principal_isotope, q, a, b)
            keys.add(t.call("search.canonical_key", canonical_key, iso,
                            info=_canonical_info(n)))
    gloop = t.call("varieties.check_variety", check_variety, q, "gloop")
    return [len(keys), gloop]


def _relabel_invariance(q, r, t):
    info = _canonical_info(q.order)
    same_key = (t.call("search.canonical_key", canonical_key, q, info=info)
                == t.call("search.canonical_key", canonical_key, r, info=info))
    phi = t.call("core.isomorphic", core.isomorphic, q, r)
    replayed = phi is not None and all(
        phi(q.mul(x, y)) == r.mul(phi(x), phi(y)) for x in q.elements() for y in q.elements()
    )
    return [same_key, replayed]


def first_in_slices(order, count, rng):
    """The first table found in each of ``count`` slices chosen by rng."""
    k = SLICES[order]
    out = []
    for i in rng.sample(range(k), k):
        res = search(SearchSpec(order, mode="first", shard_slice=(i, k)))
        if res.found:
            out.append(res.found[0])
            if len(out) == count:
                return out
    raise RuntimeError(f"fewer than {count} nonempty slices at order {order}")


def _order6_slices(name, spec, stride, full, run):
    """The order-6 search ``spec`` as one job per slice, named ``name``."""
    return [
        Job(f"{name}.o6.slice{i:02d}", partial(run, replace(spec, shard_slice=(i, ORDER6_SLICES))))
        for i in pick(range(ORDER6_SLICES), stride, full)
    ]


def classify(rng, full):
    jobs = []
    for n in range(1, 6):
        spec = SearchSpec(n, mode="collect", isomorphs="up_to_iso")
        jobs.append(Job(f"collect_iso.o{n}", partial(_count, spec)))
    jobs += _order6_slices("collect_iso", SearchSpec(6, mode="collect", isomorphs="up_to_iso"),
                           COLLECT6_STRIDE, full, _count)
    jobs += _order6_slices("count_reduced", SearchSpec(6, mode="count"), COUNT6_STRIDE, full,
                           _count)
    jobs += _order6_slices("tally_nuclei", SearchSpec(6, mode="collect"), TALLY6_STRIDE, full,
                           _tally)
    for cid, q in small_classes():
        jobs.append(Job(f"isotopes.{cid}", partial(_isotopes, q)))
    for order in (7, 8):
        for i, q in enumerate(first_in_slices(order, RELABELED_PER_ORDER, rng)):
            jobs.append(Job(f"relabel.o{order}.{i:02d}",
                            partial(_relabel_invariance, q, relabel(q, rng))))
    return jobs


# ---------------------------------------------------------------------------
# verify: the work of `loopkit check` and `loopkit verify`, per loop

EQUATIONS = tuple(prog for entry in CATALOG.values() for prog in entry.equations)
BK_AUDIT_PRIMES = (2, 3, 5)


def large_loops():
    """Six loops of order 12 to 16 built from named tables."""
    z2 = tables.cyclic(2)
    z2sq = core.direct_product(z2, z2)
    return [
        ("chein_s3", tables.chein_double(tables.dihedral(3))),
        ("chein_d8", tables.chein_double(tables.dihedral(4))),
        ("dihedral16", tables.dihedral(8)),
        ("z2x4", core.direct_product(z2sq, z2sq)),
        ("z2xcc6", core.direct_product(z2, _cc6())),
        ("cyclic16", tables.cyclic(16)),
    ]


def _identity_info(n, prog):
    return lambda holds: {"instances": n ** prog.nvars} if holds else {}


# Every k-th order-6 class is timed, with the small classes, the order-12
# and order-16 loops named here, and the cheapest bk audit.
ORDER6_CLASS_STRIDE = 8
LARGE_TIMED = ("z2xcc6", "cyclic16")
BK_AUDIT_TIMED = (2,)


def _structure(text, t):
    q = t.call("core.loads", core.loads, text)
    nl = t.call("structure.left_nucleus", structure.left_nucleus, q)
    nm = t.call("structure.middle_nucleus", structure.middle_nucleus, q)
    nr = t.call("structure.right_nucleus", structure.right_nucleus, q)
    z = t.call("structure.center", structure.center, q)
    nil = t.call("structure.nilpotency_class", structure.nilpotency_class, q)
    subs = t.call("structure.all_subloops", structure.all_subloops, q)
    normal = sum(
        t.call("structure.is_normal_subloop", structure.is_normal_subloop, q, s) for s in subs
    )
    return {
        "order": q.order,
        "nuclei": [len(nl), len(nm), len(nr), bin(nl.mask & nm.mask & nr.mask).count("1")],
        "center": len(z),
        "nilpotency": nil,
        "subloops": len(subs),
        "normal": normal,
    }


def _groups(text, t):
    q = t.call("core.loads", core.loads, text)
    mlt = t.call("perms.mlt", perms.mlt, q, info=_group_info)
    inn = t.call("perms.inn", perms.inn, q, info=_group_info)
    return {"mlt": len(mlt), "inn": len(inn)}


def _identities(text, t):
    q = t.call("core.loads", core.loads, text)
    return "".join(
        "1" if t.call("identities.check_identity", check_identity, q, prog,
                      info=_identity_info(q.order, prog)) else "0"
        for prog in EQUATIONS
    )


def _theorems(text, t):
    q = t.call("core.loads", core.loads, text)
    report = t.call("varieties.verify_theorems", verify_theorems, q,
                    info=lambda r: {"rows": len(r.rows)})
    statuses = [status for _, status in report.rows]
    return {"pass": statuses.count("PASS"), "fail": statuses.count("FAIL")}


# The checks of one loop, each its own job: what `loopkit check` reports
# (structure, multiplication groups, identities) and `loopkit verify`.
LOOP_CHECKS = (
    ("structure", _structure),
    ("perms", _groups),
    ("identities", _identities),
    ("theorems", _theorems),
)


def _audit(p, t):
    report = t.call("bk.window_audit", bk.window_audit, bk.BKParams(p),
                    info=lambda r: {"checks": r.checks})
    return {"checks": report.checks, "violations": len(report.violations)}


def _witness(p, t):
    found = t.call("bk.nonnormal_witness", bk.nonnormal_witness, bk.BKParams(p))
    return [[e.a, e.x] for e in found]


def verify(rng, full):
    classes = small_classes()
    loops = [(cid, q) for cid, q in classes if q.order < 6]
    loops += pick([(cid, q) for cid, q in classes if q.order == 6], ORDER6_CLASS_STRIDE, full)
    loops += [(name, q) for name, q in large_loops() if full or name in LARGE_TIMED]
    jobs = []
    for cid, q in loops:
        text = core.dumps(relabel(q, rng))
        for check, run in LOOP_CHECKS:
            jobs.append(Job(f"loop.{cid}.{check}", partial(run, text)))
    for p in BK_AUDIT_PRIMES if full else BK_AUDIT_TIMED:
        jobs.append(Job(f"bk.audit.p{p}", partial(_audit, p)))
    jobs.append(Job("bk.witness.p2", partial(_witness, 2)))
    return jobs


WORKLOADS = {"screen": screen, "classify": classify, "verify": verify}


def build(workload, seed, full=False):
    """The workload's timed jobs for ``seed``, or with ``full`` all of its
    jobs, in the order the seed gives them."""
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](rng, full)
    rng.shuffle(jobs)
    return jobs
