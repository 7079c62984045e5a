"""Tests of the benchmark itself: one-pass runs and its correctness gate.

    python -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def one_pass_run(workload, trace):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH, "run.py"),
            "--workload", workload,
            "--seed", "5",
            "--seconds", "1",
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(workload, trace):
    result = one_pass_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = [v["value"] for v in result["metrics"].values()]
    if trace:
        assert all(v >= 0 for v in values)
    else:
        assert all(v > 0 for v in values)


def test_wrong_expected_value_counts_as_failure(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.EXPECTED, "f4", (Fraction(11, 16), Fraction(5, 7)))
    inputs = workloads.prepare("engine", 1)
    record = workloads.run_pass("engine", inputs, str(tmp_path))
    assert record["failed"] / record["attempted"] > 0
    assert record["failed"] == 1 and record["wall_s"] is None
    values, notes = bench.end_to_end([record])
    assert notes == {"other_queries": 0} and values["cold_query_s"] is None


def test_end_to_end_takes_each_query_at_its_95th_percentile():
    def record(i):
        lats = [float(i), 10.0 * i, 100.0]
        queries = [[k, "q%d" % k, lat] for k, lat in enumerate(lats)]
        return {"setup_s": float(i), "peak_rss_mb": float(i), "wall_s": sum(lats), "queries": queries}

    values, notes = bench.end_to_end([record(i) for i in range(21)])
    assert values == {
        "setup_s": 19.0,
        "peak_rss_mb": 10.0,
        "cold_query_s": 19.0,
        "other_queries_s": 290.0,
    }
    assert notes["other_queries"] == 42


def test_raised_query_counts_as_failure(monkeypatch, tmp_path):
    def boom():
        raise ArithmeticError("injected")

    monkeypatch.setitem(
        workloads.OPERATIONS,
        "engine",
        lambda inputs, workdir: [workloads.Op("boom", boom, lambda v: True)],
    )
    record = workloads.run_pass("engine", {}, str(tmp_path))
    assert record["failed"] == record["attempted"] == 1
    assert "injected" in record["errors"][0]


def test_tracer_patches_every_binding():
    import qq22
    from qq22 import cli, geometry, matrices, semisimple, serial

    originals = (matrices.mat_charpoly, serial.load_cache, qq22.CorrelatorEngine.f_value)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert matrices.mat_charpoly is semisimple.mat_charpoly is qq22.mat_charpoly
        assert matrices.mat_charpoly is not originals[0]
        assert geometry.mat_nullspace is matrices.mat_nullspace
        assert cli.load_cache is serial.load_cache is not originals[1]
        assert cli.save_cache is serial.save_cache
        qq22.poly_gcd(qq22.UniPoly((0, 1)), qq22.UniPoly((0, 0, 1)))
        qq22.GaussianRational(1, 1) * 2 + 1
    finally:
        tr.uninstall()
    assert semisimple.mat_charpoly is originals[0]
    assert cli.load_cache is originals[1]
    assert qq22.CorrelatorEngine.f_value is originals[2]
    layers = tr.layers()
    assert layers["polynomials.poly_gcd.calls"] == 1
    assert layers["scalars.gaussian_ops"] == 2


def test_count_mismatch_is_reported():
    base = {"engine.memo_entries": 10, "scalars.gaussian_ops": 4, "cli.run.self_s": 1.0}
    other = dict(base, **{"scalars.gaussian_ops": 5, "cli.run.self_s": 3.0})
    passes = [{"wall_s": 1.0, "layers": base}, {"wall_s": 1.0, "layers": other}]
    values, mismatch = bench.per_layer({"wall_s": 1.0}, passes)
    assert mismatch == ["scalars.gaussian_ops"]
    assert values["cli.run.self_s"] == 2.0 and values["trace.overhead_ratio"] == 1.0

