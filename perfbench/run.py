"""Run one benchmark workload against the loopkit sources beside this
directory and print its metrics.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Untraced (``--trace 0``) the run prints the end-to-end metrics; traced
(``--trace 1``) it prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes a record
with the machine, every job's latency and, when traced, every span to
``perfbench/out/``.  ``--workload all`` runs each workload in its own
process and prints a table.  README.md beside this file describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import NullTracer, Tracer, layer_metrics, layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("screen", "classify", "verify")
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# The gauge: a fixed piece of pure-Python work, timed between jobs.  On a
# shared machine the processor runs this process faster or slower for
# seconds to minutes at a time, and the gauge slows with it.  Each job's
# time is scaled by (GAUGE_REF_S / g) ** GAUGE_POWER, where g is the
# median of the GAUGE_WINDOW gauge readings nearest to the job, which gives
# the seconds it would have taken at the speed where the gauge takes
# GAUGE_REF_S.  loopkit slows more than the gauge does: fitted over passes
# on a 2-vCPU VM, a pass's time went as the gauge's to the power 1.05
# (screen), 1.23 (classify) and 1.12 (verify).  The gauge never changes
# with loopkit, so a faster loopkit still shows as faster.
GAUGE_LOOPS = 25_000
GAUGE_REF_S = 0.002
GAUGE_POWER = 1.2
GAUGE_EVERY_S = 0.05
GAUGE_WINDOW = 8
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import loopkit; print(time.perf_counter() - t)"
)


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p):
    """Nearest-rank p-th percentile: the smallest sample with at least p % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100 * n))


# ---------------------------------------------------------------------------
# machine record


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit():
    if not (ROOT / ".git").exists():  # a plain checkout; git would look in its parents
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running


def import_seconds():
    """Time of ``import loopkit`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def _cpu_now():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def as_json(answer):
    """The answer as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(answer))


def _new_pass():
    return {"wall_s": 0.0, "latency": {}, "cpu": {}, "failures": [], "gauge": []}


def gauge():
    """Seconds the gauge's fixed work takes now."""
    start = time.perf_counter()
    x = 0
    for i in range(GAUGE_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def run_job(job, pins, tracer, into):
    """Run one job and add its latency, CPU time and any failure to the pass
    ``into``.  A job fails when it raises or its answer differs from its pin."""
    cpu0 = _cpu_now()
    start = time.perf_counter()
    span = tracer.begin("job", job.id)
    try:
        answer = as_json(job.run(tracer))
    except Exception:  # a failing job is counted, and the run goes on
        into["failures"].append({"job": job.id, "error": traceback.format_exc()})
    else:
        if job.id not in pins or answer != pins[job.id]:
            into["failures"].append({"job": job.id, "answer": answer, "pin": pins.get(job.id)})
    finally:
        tracer.end(span)
    latency = time.perf_counter() - start
    into["latency"][job.id] = latency
    into["cpu"][job.id] = _cpu_now() - cpu0
    into["wall_s"] += latency


def run_pass(jobs, pins, tracer):
    """Every job once, in order, with a gauge reading before the first job
    and after each GAUGE_EVERY_S of jobs.  A reading is kept with the
    number of jobs run before it."""
    into = _new_pass()
    into["gauge"].append([0, gauge()])
    since = 0.0
    for done, job in enumerate(jobs, 1):
        run_job(job, pins, tracer, into)
        since += into["latency"][job.id]
        if since >= GAUGE_EVERY_S:
            into["gauge"].append([done, gauge()])
            since = 0.0
    return into


def speeds(one_pass):
    """For each job of the pass, in order, the factor that takes its times
    to the reference speed: GAUGE_REF_S over the median of the GAUGE_WINDOW
    readings nearest to the job, to the power GAUGE_POWER."""
    readings = one_pass["gauge"]
    positions = [at for at, _ in readings]
    half = GAUGE_WINDOW // 2
    out = []
    for i in range(len(one_pass["latency"])):
        k = bisect.bisect_right(positions, i)  # readings[:k] were taken before job i
        lo = max(0, min(k - half, len(readings) - GAUGE_WINDOW))
        near = [sec for _, sec in readings[lo:lo + GAUGE_WINDOW]]
        out.append((GAUGE_REF_S / statistics.median(near)) ** GAUGE_POWER)
    return out


def traced_passes(jobs, pins, tracer):
    """Every job twice, once untraced and once traced.  Every other job runs
    traced first, so that a job running faster the second time in a process
    biases neither side of the tracing overhead."""
    plain, traced = _new_pass(), _new_pass()
    runs = [(NullTracer(), plain), (tracer, traced)]
    for i, job in enumerate(jobs):
        for t, into in runs[::-1] if i % 2 else runs:
            run_job(job, pins, t, into)
    return plain, traced


def set_up(workload, seed, build):
    """Import and input generation; returns (jobs, seconds)."""
    imported = import_seconds()
    t0 = time.perf_counter()
    jobs = build(workload, seed)
    return jobs, imported + time.perf_counter() - t0


def measure(workload, seed, build, pins, seconds):
    """Untraced passes over the job list: one, and another while it is
    expected to end within ``seconds``.  Set-up runs again before each
    pass, so that its repetitions are spread over the run like the
    passes are; every set-up builds the same inputs from the seed."""
    passes, setup_times = [], []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        jobs, setup = set_up(workload, seed, build)
        setup_times.append(setup)
        passes.append(run_pass(jobs, pins, NullTracer()))
        last = time.perf_counter() - begun
    return jobs, passes, setup_times


def end_to_end(passes, setup_times):
    """Times at the reference speed.  Each job's latency and CPU time are
    their medians over the passes, each scaled by the speed around it;
    wall_s and cpu_s are those summed over the job list.  Set-up ran before
    each pass and is scaled by the speed at the start of that pass."""
    ids = list(passes[0]["latency"])
    scaled = [dict(zip(p["latency"], speeds(p))) for p in passes]
    latency = [statistics.median(p["latency"][j] * v[j] for p, v in zip(passes, scaled))
               for j in ids]
    cpu = [statistics.median(p["cpu"][j] * v[j] for p, v in zip(passes, scaled)) for j in ids]
    first = [next(iter(v.values())) for v in scaled]
    return {
        "wall_s": sum(latency),
        "cpu_s": sum(cpu),
        "job_p50_s": percentile(latency, 50),
        "job_p90_s": percentile(latency, 90),
        "setup_s": statistics.median(t * v for t, v in zip(setup_times, first)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import workloads

    with open(HERE / "pins.json", encoding="utf-8") as fh:
        pins = json.load(fh)[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine(), "loadavg_before": loadavg()}
    if args.trace:
        jobs, setup = set_up(args.workload, args.seed, workloads.build)
        setup_times = [setup]
        tracer = Tracer()
        untraced, traced = traced_passes(jobs, pins, tracer)
        passes = [untraced, traced]
        metrics = layer_metrics(tracer.spans)
        metrics["bench.trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        units = {name: layer_unit(name) for name in metrics}
        record["spans"] = [s.as_row() for s in tracer.spans]
    else:
        jobs, passes, setup_times = measure(args.workload, args.seed, workloads.build, pins,
                                            args.seconds)
        metrics = end_to_end(passes, setup_times)
        units = dict(END_TO_END)
    record["loadavg_after"] = loadavg()
    attempted = sum(len(p["latency"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    record.update(setup_s=setup_times, passes=passes, metrics=metrics)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for f in failures:
        print(f"FAILED {f['job']}: {f.get('error') or (f['answer'], f['pin'])}",
              file=sys.stderr)
    m = record["machine"]
    print(f"machine nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"commit={m['commit']}")
    print(f"loadavg before={record['loadavg_before']} after={record['loadavg_after']}")
    print(f"{args.workload}: {len(jobs)} jobs x {len(passes)} passes, "
          f"p90 has {samples_beyond(len(jobs), 90)} jobs beyond it; "
          f"fail_frac {len(failures) / attempted:.4f} ({len(failures)}/{attempted})")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value} {units[name]}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{workload} exited with {out.returncode}", file=sys.stderr)
            return out.returncode
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    names = list(results[WORKLOAD_NAMES[0]]["metrics"])
    width = max(len(n) for n in names + ["fail_frac"])
    print(f"{'metric':<{width}} " + " ".join(f"{w:>12}" for w in WORKLOAD_NAMES))
    for name in names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][name]["unit"]
        row = " ".join(f"{results[w]['metrics'][name]['value']:>12.4g}" for w in WORKLOAD_NAMES)
        print(f"{name:<{width}} {row} {unit}")
    row = " ".join(f"{results[w]['failed'] / results[w]['attempted']:>12.4g}"
                   for w in WORKLOAD_NAMES)
    print(f"{'fail_frac':<{width}} {row}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": v for w, r in results.items()
                    for name, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "loopkit" / "__init__.py").is_file():
        print(f"error: no loopkit sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
