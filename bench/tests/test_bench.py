"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest bench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import lib_ops  # noqa: E402
import run  # noqa: E402
from cli_ops import check_output  # noqa: E402
from layers import per_layer_spec  # noqa: E402
from loop import closed_loop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["per_layer"] == per_layer_spec()
    assert len(SPEC["per_layer"]) <= 128
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "ops_per_s", "latency_p50_s", "latency_tail_s", "peak_rss_mib"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
    assert detail["seed"] == 7 and detail["fail_ratio"] == 0.0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("cli_oneshot", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", sorted(lib_ops.WORKLOADS))
def test_planted_entropy_error_raises_fail_ratio(workload, tmp_path, monkeypatch):
    import entrokit

    gen.generate(workload, 7, tmp_path, tiny=True)
    ops = lib_ops.WORKLOADS[workload](entrokit, tmp_path)
    assert closed_loop(ops, 0.2)["failed"] == 0

    original = entrokit.entropy.shannon_entropy

    def off_by_1e6(p, k=1.0):
        v = original(p, k)
        return type(v)(value=v.value + 1e-6, k=v.k, unit=v.unit)

    for module in (entrokit, entrokit.entropy):
        monkeypatch.setattr(module, "shannon_entropy", off_by_1e6)
    phase = closed_loop(ops, 0.2)
    assert phase["failed"] > 0, phase


def test_cli_check_rejects_wrong_values_and_non_json(tmp_path):
    gen.generate("cli_oneshot", 7, tmp_path)
    ops = json.loads((tmp_path / "ops.json").read_text())
    op = next(o for o in ops if o["kind"] == "discrete" and o["expect"] == 0)
    body = {"value": op["ref"]["value"], "unit": op["ref"]["unit"]}
    assert check_output(op, 0, json.dumps(body)) is None
    assert check_output(op, 0, json.dumps({**body, "value": body["value"] + 1e-6}))
    assert check_output(op, 65, json.dumps(body))
    assert check_output(op, 0, '{"value": Infinity, "unit": "nats"}')
    bad = next(o for o in ops if o["expect"] == 65)
    assert check_output(bad, 65, '{"error": {"kind": "NotNormalized", "message": "x"}}') is None
    assert check_output(bad, 65, '{"value": 1.0}')
