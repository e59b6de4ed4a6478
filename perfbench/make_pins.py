"""Write pins.json: every job's answer, checked first against the figures
the benchmark was specified with.

    python3 perfbench/make_pins.py

Run it only when a workload's job list changes; the pins record what
the loopkit sources answered when they were written, so a later change
that alters an answer shows as a failed job.  It runs every workload's
full job list, of which timed runs use a fixed share, and checks the
totals of the sliced searches against the figures they were specified
with.
"""

from __future__ import annotations

import json
import sys

from run import HERE, SRC, WORKLOAD_NAMES, as_json

SCREEN_COUNTS = {
    "osborn-cc,moufang": 0, "cc-associative": 40, "associative-none": 80,
    "commutative-none": 456, "moufang-none": 80, "lbol-none": 80, "rbol-none": 80,
    "lc-none": 86, "rc-none": 86, "lip-none": 316, "ip-none": 80, "flx-none": 508,
    "wip-none": 240, "buchsteiner-none": 120, "aaip-none": 316,
}
NUCLEUS_CENTER_TALLY = {"1,1": 9048, "2,1": 60, "2,2": 180, "3,1": 40, "6,1": 20, "6,6": 60}


def check_screen(a, found):
    assert all(v == 0 for k, v in a.items() if k.startswith("osborn7."))
    # count6.<req>-<forb>.sliceNN: the slices of a screen sum to its count
    screens = {}
    for k, v in a.items():
        if k.startswith("count6."):
            name = k[len("count6."):k.rindex(".slice")]
            screens[name] = screens.get(name, 0) + v
    assert screens == SCREEN_COUNTS
    assert a["minimal_order.cc-associative"] == [6, True]
    assert a["cli.search5.shards2"] == [0, 0]


def check_classify(a, found):
    """``found`` holds the classes by id, o<order>.<index>, as the search found them."""
    per_order = [sum(k.startswith(f"o{n}.") for k in found) for n in range(1, 7)]
    assert per_order == [1, 1, 1, 2, 6, 109]
    assert [a[f"collect_iso.o{n}"] for n in range(1, 6)] == [1, 1, 1, 2, 6]
    assert sum(v for k, v in a.items() if k.startswith("count_reduced.o6.")) == 9408
    tally = {}
    for k, v in a.items():
        if k.startswith("tally_nuclei.o6."):
            for key, count in v.items():
                tally[key] = tally.get(key, 0) + count
    assert tally == NUCLEUS_CENTER_TALLY
    isotopes = [v for k, v in a.items() if k.startswith("isotopes.")]
    assert len(isotopes) == 120
    assert sum(classes for classes, _ in isotopes) == 822
    assert sum(gloop for _, gloop in isotopes) == 9
    assert all(v == [True, True] for k, v in a.items() if k.startswith("relabel."))


def check_verify(a, found):
    theorems = {k: v for k, v in a.items() if k.endswith(".theorems")}
    assert len(theorems) == 126 and all(v["fail"] == 0 for v in theorems.values())
    z2x4 = a["loop.z2x4.structure"]
    assert (z2x4["subloops"], z2x4["normal"]) == (67, 67)
    assert all(a[f"bk.audit.p{p}"]["violations"] == 0 for p in (2, 3, 5))
    assert a["bk.witness.p2"] == [[1, 0], [1, 0], [0, 1], [2, 0]]


def _dump_lines(mapping, fh):
    """A JSON object with one key per line, so that diffs stay readable."""
    fh.write("{\n")
    fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in mapping.items()))
    fh.write("\n}")


CHECKS = {"screen": check_screen, "classify": check_classify, "verify": check_verify}


def main():
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import NullTracer

    classes = workloads.search_classes()
    with open(workloads.CLASSES, "w", encoding="utf-8") as fh:
        _dump_lines(classes, fh)
    pins = {}
    for name in WORKLOAD_NAMES:
        jobs = workloads.build(name, 0, full=True)
        answers = {job.id: as_json(job.run(NullTracer())) for job in jobs}
        CHECKS[name](answers, classes)
        pins[name] = dict(sorted(answers.items()))
        print(f"{name}: {len(answers)} jobs pinned")
    with open(HERE / "pins.json", "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, name in enumerate(WORKLOAD_NAMES):
            fh.write(f"{json.dumps(name)}: ")
            _dump_lines(pins[name], fh)
            fh.write(",\n" if i + 1 < len(WORKLOAD_NAMES) else "\n")
        fh.write("}\n")


if __name__ == "__main__":
    main()
