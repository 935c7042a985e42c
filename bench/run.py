"""entrokit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the entrokit in that
checkout's src/.  Inputs are generated from the seed before anything is
timed.  Set-up (a fresh interpreter until it is ready for the first timed
op) is measured SETUP_REPEATS times and reported as the median; the last
set-up process then runs the workload in a closed loop for S seconds.  With
--trace 1 it runs S/2 seconds untraced and S/2 traced, and reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.

Stdout: a table of every metric with its unit, a JSON detail record (seed,
environment, failures, tail percentile), and as the last line the result
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import IMPORTS, layer_metrics, per_layer_spec
from loop import strict_json

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli_oneshot", "quantize_fine", "axiom_suites")
SETUP_REPEATS = 3
# Tune on any seed but this one; a claimed gain is re-checked on it.
HELD_OUT_SEED = 20261017
WATCHDOG_S = 170
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Inputs outside the timed draws that hit a known defect; each cli_oneshot
# run reports whether their stdout is strict JSON yet.
KNOWN_DEFECTS = {
    "statmech compare overflows with planck_h < 1 at large N":
        ["statmech", "compare", "--E", "150", "--dE", "1.5", "--V", "1000",
         "--N", "1000", "--planck-h", "0.1"],
}


class Timeout(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _start(workload: str, inputs: Path, trace: int, live: list) -> tuple:
    """Start a worker; return it with its set-up time and ready record."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(ROOT), workload, str(inputs), str(trace)],
        cwd=ROOT, env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    live.append(proc)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if not line:
        raise RuntimeError(f"worker exited during set-up with code {proc.wait()}")
    return proc, setup_s, json.loads(line)


def _finish(proc: subprocess.Popen, seconds: float | None) -> dict | None:
    """Stop a worker after set-up, or have it run for `seconds` first."""
    if seconds is not None:
        proc.stdin.write(json.dumps({"seconds": seconds}) + "\n")
    proc.stdin.close()
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1]) if seconds is not None else None


def _tail(latencies: list[float]) -> tuple[float, dict]:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    i = max(len(xs) - 11, 0)
    return xs[i], {"percentile": 100.0 * (i + 1) / len(xs), "samples": len(xs),
                   "beyond": len(xs) - 1 - i}


def _known_defects() -> dict:
    out = {}
    for name, argv in KNOWN_DEFECTS.items():
        proc = subprocess.run([sys.executable, "-m", "entrokit", *argv], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=60)
        try:
            strict_json(proc.stdout)
            out[name] = f"fixed: exit {proc.returncode}, strict JSON"
        except ValueError as e:
            out[name] = f"present: exit {proc.returncode}, {e}"
    return out


def _environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cpu_model": None,
        "caches": {},
        "commit": None,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            key = "L" + (d / "level").read_text().strip() + (d / "type").read_text().strip()[0]
            env["caches"][key] = (d / "size").read_text().strip()
    except OSError:
        pass
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        env["commit"] = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def _metrics(workload: str, result: dict, setups: list, readies: list) -> dict:
    """Name -> (value, unit) for the run, end-to-end or per-layer."""
    phase = result["untraced"]
    if "traced" not in result:
        tail, _ = _tail(phase["latencies"])
        return {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (phase["ops"] / phase["elapsed_s"], "1/s"),
            "latency_p50_s": (statistics.median(phase["latencies"]), "s"),
            "latency_tail_s": (tail, "s"),
            "peak_rss_mib": (result["peak_rss_kib"] / 1024.0, "MiB"),
        }
    traced, totals = result["traced"], result["totals"]
    values = layer_metrics(totals, traced["ops"])
    if workload != "cli_oneshot":  # imports happen once, at set-up
        for name in IMPORTS:
            values[f"import.{name}.self_s"] = statistics.median(r["imports"][name] for r in readies)
        values["import.total_s"] = statistics.median(r["imports"]["total"] for r in readies)
    untraced_rate = phase["ops"] / phase["elapsed_s"]
    traced_rate = traced["ops"] / traced["elapsed_s"]
    values["trace.traced_ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.overhead"] = 1.0 - traced_rate / untraced_rate
    values["trace.span_coverage"] = totals["top_s"] / sum(traced["latencies"])
    return {m["name"]: (values[m["name"]], m["unit"]) for m in per_layer_spec()}


def run(args) -> int:
    import gen

    inputs = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    live: list[subprocess.Popen] = []
    try:
        gen.generate(args.workload, args.seed, inputs, tiny=args.tiny)
        setups, readies, result = [], [], None
        for i in range(SETUP_REPEATS):
            proc, setup_s, ready = _start(args.workload, inputs, args.trace, live)
            setups.append(setup_s)
            readies.append(ready)
            last = i == SETUP_REPEATS - 1
            result = _finish(proc, args.seconds if last else None)
        defects = _known_defects() if args.workload == "cli_oneshot" else {}
    finally:
        for proc in live:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        shutil.rmtree(inputs, ignore_errors=True)

    phases = [result["untraced"]] + ([result["traced"]] if "traced" in result else [])
    attempted = sum(p["ops"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    metrics = _metrics(args.workload, result, setups, readies)
    _, tail = _tail(result["untraced"]["latencies"])
    detail = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "fail_ratio": failed / attempted, "latency_tail": tail,
        "setup_runs_s": setups, "failures": [r for p in phases for r in p["reasons"]],
        "known_defects": defects, "environment": _environment(),
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:52s} {value:14.6g} {unit}")
    print(f"{args.workload:14s} {'fail_ratio':52s} {failed / attempted:14.6g} ratio")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "entrokit" / "__init__.py").is_file():
        print(f"bench: no entrokit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    def expire(signum, frame):
        raise Timeout(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    try:
        return run(args)
    except (Timeout, RuntimeError, subprocess.SubprocessError, OSError) as e:
        print(f"bench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
