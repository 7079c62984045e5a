"""Benchmark runner for qq22.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(``worker.py``) with cold engines, because every CLI or library process pays
for a cold engine.  The seed only shapes the inputs, which a separate
``prepare`` step derives before any timing.

``--trace 0`` repeats untraced passes of about a second while another one
should end within ``--seconds``, and reports the end-to-end metrics named in
``BENCHMARK.json``: each time is a 95th percentile over the run's passes,
and the memory is their median.  ``--trace 1`` runs two traced passes with an
untraced one between them and reports the per-layer metrics; the two traced
passes must give identical counts.

The last line of standard output is the result; the line before it holds the
run's metadata.  Both also go to ``.perfbench_out/`` with the spans of traced
passes.  Exit code 0 means every answer was verified; 1 means a failed check
(with a result) or a failed step (without one); 2 means a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from tracer import DETERMINISTIC  # noqa: E402
from workloads import NAMES  # noqa: E402

DEADLINE_S = 170.0


class StepError(RuntimeError):
    """A worker process failed or ran out of time; no result can be given."""


def step(request, deadline):
    """Run one worker request in a fresh interpreter and return its JSON reply."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise StepError("out of time before the %s step" % request["role"])
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise StepError("%s step ran out of time" % request["role"]) from None
    if proc.returncode != 0:
        raise StepError(
            "%s step exited %d:\n%s" % (request["role"], proc.returncode, proc.stderr[-2000:])
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload, inputs, deadline, spans=None):
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        return step(
            {
                "role": "pass",
                "workload": workload,
                "inputs": inputs,
                "workdir": workdir,
                "spans": spans,
            },
            deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def p95(values):
    """The 95th percentile, interpolated; a single value is its own."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(passes):
    """End-to-end metrics over the passes of a run, and latency notes.

    Each time is a 95th percentile over the passes whose every answer was
    verified: ``setup_s`` of the set-up time, ``cold_query_s`` of the first
    query's latency (the workload's headline), and ``other_queries_s`` the sum,
    over the other queries, of each one's.  The host this was tuned on
    switches between two speeds about 1.9x apart, each holding for a second
    to a minute, and spends from a third to nine tenths of any 45 s at the
    slower one.  A median follows the share of time spent at each speed, and
    a minimum needs a run that saw the faster one; the 95th percentile reads
    the slower speed in nearly every run.
    """
    verified = [p for p in passes if p["wall_s"] is not None]
    columns = list(zip(*([q[2] for q in p["queries"]] for p in verified)))
    others = [lat for column in columns[1:] for lat in column]
    values = {
        "setup_s": p95(p["setup_s"] for p in verified),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "cold_query_s": p95(columns[0]) if columns else None,
        "other_queries_s": sum(p95(c) for c in columns[1:]) if columns else None,
    }
    notes = {"other_queries": len(others)}
    if len(others) >= 2:
        deciles = statistics.quantiles(others, n=10, method="inclusive")
        notes["other_query_p50_ms"] = 1000.0 * deciles[4]
        notes["other_query_p90_ms"] = 1000.0 * deciles[8]
    return values, notes


def per_layer(untraced, traced):
    """Per-layer metrics of two traced passes, and the counts that differ."""
    first, second = traced[0]["layers"], traced[1]["layers"]
    mismatch = [k for k in DETERMINISTIC if first.get(k) != second.get(k)]
    out = {}
    for name, a in first.items():
        out[name] = a if isinstance(a, int) else (a + second[name]) / 2.0
    walls = [p["wall_s"] for p in traced]
    if untraced["wall_s"] and None not in walls:
        out["trace.overhead_ratio"] = statistics.median(walls) / untraced["wall_s"]
    else:
        out["trace.overhead_ratio"] = None
    return out, mismatch


def calibrate():
    """Fixed pure-Python work (exact rational sums); its time shows machine noise."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 20001):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
    return time.perf_counter() - start


def commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def source_digest():
    """SHA-256 over the package sources, which names the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qq22")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


def measure(args, meta, declared, deadline):
    """Run the workload; returns the result object."""
    inputs = step(
        {"role": "prepare", "workload": args.workload, "seed": args.seed},
        deadline,
    )
    tag = "%s-seed%d" % (args.workload, args.seed)
    if args.trace:
        # the untraced pass runs between the traced ones, so that a drift in
        # machine speed during the run biases the overhead ratio less
        spans = [os.path.join(OUT, "spans-%s-pass%d.json" % (tag, k)) for k in (1, 2)]
        first = run_pass(args.workload, inputs, deadline, spans[0])
        untraced = run_pass(args.workload, inputs, deadline)
        second = run_pass(args.workload, inputs, deadline, spans[1])
        traced = [first, second]
        passes = [first, untraced, second]
        values, mismatch = per_layer(untraced, traced)
        meta["count_mismatch"] = mismatch
        determinism_ok = not mismatch
    else:
        passes = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(args.workload, inputs, deadline))
            # another pass only if it should end within --seconds
            now = time.monotonic()
            if now - start + (now - t0) > args.seconds or now + (now - t0) > deadline:
                break
        values, notes = end_to_end(passes)
        meta.update(notes)
        determinism_ok = True
    meta["passes"] = len(passes)
    meta["errors"] = [e for p in passes for e in p["errors"]][:10]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    missing = [name for name in declared if values.get(name) is None]
    meta["missing_metrics"] = missing
    metrics = {
        name: {"value": values.get(name), "unit": unit} for name, unit in declared.items()
    }
    return {
        "correct": failed == 0 and determinism_ok and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so that subprocess.run kills and reaps the
    # running worker before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "qq22", "__init__.py")):
        print("error: no qq22 sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    declared = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)

    meta = metadata(args)
    meta["calibration_s_start"] = calibrate()
    try:
        result, passes = measure(args, meta, declared, deadline)
    except StepError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    meta["calibration_s_end"] = calibrate()
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"meta": meta, "result": result, "passes": passes}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
