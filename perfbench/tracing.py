"""Spans around the benchmark's calls into loopkit, and the per-layer
metrics computed from them.

A span records one call: its name (``<module>.<function>``), start and
end on the ``perf_counter`` clock, the index of its parent span, the job
it belongs to, and a few counts taken from the call's result.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: str | None = None
    info: dict = field(default_factory=dict)

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.job, self.info]


class NullTracer:
    """Untraced runs: calls go straight through and nothing is recorded."""

    def call(self, name, fn, *args, info=None):
        return fn(*args)

    def begin(self, name, job=None):
        return None

    def end(self, index):
        pass


class Tracer:
    """Records a span around each call made through ``call``.

    ``info``, when given, maps the call's result to a dict of counts kept
    on the span, such as the nodes a search visited.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name, job=None):
        parent = self._open[-1] if self._open else None
        if job is None and parent is not None:
            job = self.spans[parent].job
        self.spans.append(Span(name, _clock(), parent=parent, job=job))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index):
        self.spans[index].end = _clock()
        self._open.pop()

    def call(self, name, fn, *args, info=None):
        index = self.begin(name)
        try:
            result = fn(*args)
        finally:
            self.end(index)
        if info is not None:
            self.spans[index].info = info(result)
        return result


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other (they never do in a single-threaded
    run, but the arithmetic does not rely on it), so the covered part is
    the length of the union of their intervals, clipped to the parent.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


# Span names that make up each layer's busy time.
_SEARCH = ("search.search", "search.minimal_order")
_SCAN = (
    "structure.nucleus",
    "structure.left_nucleus",
    "structure.middle_nucleus",
    "structure.right_nucleus",
    "structure.center",
    "structure.nilpotency_class",
)
_PERMS = ("perms.mlt", "perms.inn")


def layer_unit(name):
    """The unit of a per-layer metric, read from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_node"):
        return "ratio"
    return "count"


def layer_metrics(spans):
    """The per-layer metrics of one traced pass, by metric name.

    A layer that the pass never called reports 0 for each of its metrics.
    """
    by_name = {}
    for s, t in zip(spans, self_times(spans)):
        by_name.setdefault(s.name, []).append((s.info, t))

    def rows(names):
        return [r for name in names for r in by_name.get(name, ())]

    def n_calls(names):
        return len(rows(names))

    def busy_s(names):
        return sum(t for _, t in rows(names))

    def total(names, key):
        return sum(info.get(key, 0) for info, _ in rows(names))

    def rate(names, key):
        """Sum of ``key`` per second of self time, over the calls that report it."""
        counted = [(info[key], t) for info, t in rows(names) if key in info]
        seconds = sum(t for _, t in counted)
        return sum(v for v, _ in counted) / seconds if seconds > 0 else 0.0

    m = {}
    nodes = total(_SEARCH, "nodes")
    m["search.calls"] = n_calls(_SEARCH)
    m["search.busy_s"] = busy_s(_SEARCH)
    m["search.nodes"] = nodes
    m["search.nodes_per_s"] = rate(_SEARCH, "nodes")
    m["search.found"] = total(_SEARCH, "found")
    m["search.found_per_node"] = m["search.found"] / nodes if nodes else 0.0

    canon = ("search.canonical_key",)
    m["search.canonical.calls"] = n_calls(canon)
    m["search.canonical.busy_s"] = busy_s(canon)
    for order in (6, 7, 8):
        m[f"search.canonical.o{order}_per_s"] = rate(canon, f"o{order}")

    m["core.isomorphic.calls"] = n_calls(("core.isomorphic",))
    m["core.isomorphic.busy_s"] = busy_s(("core.isomorphic",))
    m["core.isotope.busy_s"] = busy_s(("core.principal_isotope",))
    m["core.loads.busy_s"] = busy_s(("core.loads",))

    m["perms.calls"] = n_calls(_PERMS)
    m["perms.busy_s"] = busy_s(_PERMS)
    m["perms.elements"] = total(_PERMS, "elements")
    m["perms.elements_per_s"] = rate(_PERMS, "elements")

    normal = ("structure.is_normal_subloop",)
    m["structure.normal.calls"] = n_calls(normal)
    m["structure.normal.busy_s"] = busy_s(normal)
    m["structure.subloops.busy_s"] = busy_s(("structure.all_subloops",))
    m["structure.scan.busy_s"] = busy_s(_SCAN)

    ident = ("identities.check_identity",)
    m["identities.calls"] = n_calls(ident)
    m["identities.busy_s"] = busy_s(ident)
    m["identities.instances_per_s"] = rate(ident, "instances")

    theorems = ("varieties.verify_theorems",)
    m["varieties.theorems.calls"] = n_calls(theorems)
    m["varieties.theorems.busy_s"] = busy_s(theorems)
    m["varieties.theorems.rows"] = total(theorems, "rows")
    m["varieties.gloop.busy_s"] = busy_s(("varieties.check_variety",))

    audit = ("bk.window_audit",)
    m["bk.audit.checks"] = total(audit, "checks")
    m["bk.audit.busy_s"] = busy_s(audit)
    m["bk.audit.checks_per_s"] = rate(audit, "checks")
    m["bk.witness.busy_s"] = busy_s(("bk.nonnormal_witness",))

    fanout = ("cli.main",)
    m["cli.fanout.busy_s"] = busy_s(fanout)
    m["cli.fanout.overhead_s"] = m["cli.fanout.busy_s"] - total(fanout, "elapsed")

    m["bench.glue_s"] = busy_s(("job",))
    return m
