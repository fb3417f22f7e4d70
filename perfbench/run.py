"""The normrec benchmark. Run it from the root of a checkout:

    python3 perfbench/run.py --workload quad-certify --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one caller and no threads: the next
instance starts when the previous one has returned. Every instance builds a
fresh ``NormFormProblem``, as a ``normrec`` command does on every run, and
every output is checked against the plain-integer oracle in ``oracle.py``.
The seed draws the instances (see ``workloads.py``); one instance of each
kind runs untimed first.

``--trace 0`` runs whole cycles of the workload, enough for 40 instances
and then as many as fit in ``--seconds``, and reports the end-to-end
metrics. The machine these runs share
changes speed by a quarter and more for tens of seconds at a time, so every
end-to-end time is calibrated: a fixed reference loop of fraction
arithmetic runs between instances, and each instance's wall time is scaled
by ``REF_S`` over the mean duration of the two reference loops around it.
The figures are thus seconds at the speed where the reference loop takes
``REF_S``; the raw wall-clock figures are printed beside them (``raw.*``),
with the median reference duration. ``instances_per_s`` is instances per
second of instance time, ``setup_s`` the median calibrated time of seven
imports of normrec (see ``SETUP_PROBE``), ``peak_rss_mib`` the process's
peak resident memory.

``--trace 1`` runs the field-kernel microbenchmarks, then replays the seed's
first cycle in pairs of passes, one plain and one traced, as many pairs as
fit in ``--seconds`` and at least one; the per-layer metrics (``layers.py``) come from
the traced passes, the tracing overhead from the calibrated times of the
two passes of each pair. The other per-layer times are raw wall-clock
times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) entries of
``BENCHMARK.json``. The lines before it print every metric with its unit,
including the ones BENCHMARK.json does not list (``failed_ratio``,
``recall``, and per-layer times of layers a workload never calls), and the
environment. A fuller record, and in trace mode the spans, go to
``.bench_build/perfbench/``. The exit code is 1 when any output is wrong or
any instance raised, and 2 when the checkout has no ``src/normrec``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 7
MIN_INSTANCES = 40  # so that at least 10 samples lie beyond the p75
REF_S = 0.010  # nominal duration of one reference loop
# Runs in a child interpreter: import normrec once untimed (that import also
# pays the fresh process's first-touch costs, which swing with the host),
# then SETUP_SAMPLES times more, each after dropping every module the first
# import loaded, with reference loops around each import as for instances.
SETUP_PROBE = """
import gc, json, sys, time
src, here, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [src, here]
from run import REF_S, reference_loop
base = set(sys.modules)
import normrec
out = []
for _ in range(count):
    for name in [m for m in sys.modules if m not in base]:
        del sys.modules[name]
    gc.collect()
    before = reference_loop()
    start = time.perf_counter()
    import normrec
    raw = time.perf_counter() - start
    out.append([raw, raw * 2 * REF_S / (before + reference_loop())])
print(json.dumps(out))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "normrec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment(args):
    import mpmath
    import sympy

    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def reference_loop():
    """Duration of a fixed piece of pure-Python fraction arithmetic, the
    yardstick for the machine's current speed."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
    return time.perf_counter() - start


def setup_samples():
    """(raw, calibrated) seconds of SETUP_SAMPLES imports of normrec."""
    res = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(Path(__file__).parent), str(SETUP_SAMPLES)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return json.loads(res.stdout.strip().splitlines()[-1])


@dataclass
class Record:
    kind: str
    params: dict
    latency: float  # wall time, seconds
    out: object  # plain-data output, None if the instance raised
    error: str  # traceback, None if it returned
    ref: float = None  # mean duration of the reference loops around it
    cal: float = None  # latency calibrated to REF_S


def run_one(wl, kind, params, runner=None):
    run = runner or (lambda k, p: wl.kinds[k].run(p))
    start = time.perf_counter()
    try:
        out, error = run(kind, params), None
    except Exception:
        out, error = None, traceback.format_exc()
    return Record(kind, params, time.perf_counter() - start, out, error)


def run_calibrated(wl, items, runner=None):
    """Run the (kind, params) items one after another, with a reference
    loop before the first and after each, and calibrate each record."""
    records, before = [], reference_loop()
    for kind, params in items:
        r = run_one(wl, kind, params, runner)
        after = reference_loop()
        r.ref = (before + after) / 2
        r.cal = r.latency * REF_S / r.ref
        records.append(r)
        before = after
    return records


def check(wl, records):
    """(record, errors) for every record the oracle rejects or that raised."""
    bad = []
    for r in records:
        errors = [r.error] if r.error else wl.kinds[r.kind].check(r.params, r.out)
        if errors:
            bad.append((r, errors))
    return bad


def recall(wl, records):
    """(planted attempted, certified with exactly the planted (A, b))."""
    attempted = hit = 0
    for r in records:
        planted = wl.kinds[r.kind].planted(r.params)
        if planted is None:
            continue
        attempted += 1
        if r.out and r.out["certificate"]:
            got = (tuple(tuple(row) for row in r.out["A"]), tuple(r.out["b"]))
            hit += got == planted
    return attempted, hit


def fits_another(start, done, seconds, minimum):
    """Whether to run one more cycle: always up to ``minimum`` cycles, then
    only if, at the mean pace so far, it ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return done < minimum or elapsed * (done + 1) / done <= seconds


def latency_metrics(prefix, lat):
    return {
        f"{prefix}instances_per_s": (len(lat) / sum(lat), "1/s"),
        f"{prefix}latency_p50_s": (statistics.median(lat), "s"),
        f"{prefix}latency_p75_s": (statistics.quantiles(lat, n=4)[2], "s"),
    }


def end_to_end(wl, args):
    warm = [run_one(wl, k, p) for k, p in wl.warm_up(args.seed)]
    records = []
    min_cycles = -(-MIN_INSTANCES // len(wl.slots))
    start = time.perf_counter()
    for done, cycle in enumerate(wl.cycles(args.seed), 1):
        records += run_calibrated(wl, cycle)
        if not fits_another(start, done, args.seconds, min_cycles):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = setup_samples()

    cal = [r.cal for r in records]
    metrics = latency_metrics("", cal)
    metrics["setup_s"] = (statistics.median(cal for _, cal in setup), "s")
    metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
    metrics.update(latency_metrics("raw.", [r.latency for r in records]))
    metrics["raw.setup_s"] = (statistics.median(raw for raw, _ in setup), "s")
    metrics["raw.reference_loop_s"] = (statistics.median(r.ref for r in records), "s")
    metrics["samples"] = (len(cal), "count")
    metrics["samples_beyond_p75"] = (sum(x > metrics["latency_p75_s"][0] for x in cal), "count")
    detail = {
        "setup_samples_s": setup,
        "instances": [[r.kind, r.latency, r.ref] for r in records],
        "latency_by_kind_s": {
            kind: statistics.median(r.cal for r in records if r.kind == kind)
            for kind in wl.kinds
        },
    }
    return warm + records, metrics, detail


def traced(wl, args, normrec):
    import layers
    import microbench
    from tracer import Tracer

    micro = microbench.run(args.seed)
    warm = [run_one(wl, k, p) for k, p in wl.warm_up(args.seed)]
    cycle = next(wl.cycles(args.seed))
    tracer = Tracer()
    root = tracer.wrap("bench.instance", lambda k, p: wl.kinds[k].run(p))
    records, outcomes = [], []
    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or fits_another(start, passes, args.seconds, minimum=1):
        plain = run_calibrated(wl, cycle)
        tracer.install(normrec, layers.OBSERVERS)
        try:
            traced_pass = run_calibrated(wl, cycle, root)
        finally:
            tracer.uninstall()
        plain_s += sum(r.cal for r in plain)
        traced_s += sum(r.cal for r in traced_pass)
        records += plain + traced_pass
        outcomes += [r.out for r in traced_pass if r.out and "certificate" in r.out]
        passes += 1

    metrics = {name: (value, "us") for name, value in micro.items()}
    metrics.update(layers.metrics(tracer.totals(), tracer.observed, outcomes, passes))
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1, "ratio")
    metrics["trace.spans"] = (len(tracer.start) // passes, "count")
    tracer.write(WORK / f"{args.workload}.spans")
    detail = {
        "passes": passes,
        "instances_per_pass": len(cycle),
        "plain_pass_calibrated_s": plain_s / passes,
        "traced_pass_calibrated_s": traced_s / passes,
        "span_names": tracer.names,
        "spans_file": f"{args.workload}.spans",
    }
    return warm + records, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "normrec" / "__init__.py").is_file():
        print(f"perfbench: no normrec sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    # byte-compile up front, so that every import of normrec, here and in
    # the set-up probes, loads bytecode as an installed copy would
    compileall.compile_dir(str(SRC / "normrec"), quiet=1)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import normrec
    import_s = time.perf_counter() - start

    import workloads

    if args.workload not in workloads.CYCLES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.CYCLES)}", file=sys.stderr)
        return 2
    wl = workloads.Workload(args.workload, WORK)
    if args.trace:
        records, metrics, detail = traced(wl, args, normrec)
    else:
        records, metrics, detail = end_to_end(wl, args)
        detail["import_in_process_s"] = import_s

    bad = check(wl, records)
    attempted = len(records)
    metrics["failed_ratio"] = (len(bad) / attempted, "ratio")
    planted, certified = recall(wl, records)
    if planted:
        metrics["recall"] = (certified / planted, "ratio")

    env = environment(args)
    for r, errors in bad[:5]:
        print(f"perfbench: {r.kind} {r.params} rejected: {errors[0]}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "detail": detail,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                   indent=1, sort_keys=True)
    )

    listed = bench["per_layer" if args.trace else "end_to_end"]
    result = {}
    for entry in listed:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} is measured in {unit}, listed in {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": unit}
    correct = not bad
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(bad), "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
