"""One benchmark process: set up, say so, then run the timed phase on request.

    python bench/worker.py ROOT WORKLOAD INPUTS TRACE

It prints one JSON line {"ready": ...} once entrokit is imported and the
inputs are loaded, and then reads one line from stdin.  End of input ends
it, which is how set-up alone is timed.  A line {"seconds": s} runs the
workload for s seconds, half untraced and half traced when TRACE is 1, and
prints one JSON line of raw results.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import resource
import sys
from pathlib import Path

from layers import ImportTimer, Tracer
from loop import closed_loop


def check_checkout(root: Path, origin: str | None) -> None:
    """Refuse to measure an entrokit other than this checkout's src/."""
    expected = (root / "src" / "entrokit" / "__init__.py").resolve()
    if origin is None or Path(origin).resolve() != expected:
        raise SystemExit(f"entrokit resolves to {origin}, not {expected}")


def main() -> int:
    root, workload, inputs, trace = (Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3]),
                                     sys.argv[4] == "1")
    ready = {"ready": True}
    if workload == "cli_oneshot":
        from cli_ops import CliOps

        spec = importlib.util.find_spec("entrokit")
        check_checkout(root, spec.origin if spec else None)
        cli = CliOps(root, inputs)
        ops = cli.ops()
    else:
        timer = ImportTimer() if trace else contextlib.nullcontext()
        with timer:
            import entrokit
        check_checkout(root, entrokit.__file__)
        if trace:
            ready["imports"] = timer.totals()
        import lib_ops

        ops = lib_ops.WORKLOADS[workload](entrokit, inputs)
    print(json.dumps(ready), flush=True)

    line = sys.stdin.readline()
    if not line.strip():
        return 0
    seconds = json.loads(line)["seconds"]
    result = {"untraced": closed_loop(ops, seconds / 2 if trace else seconds)}
    if trace:
        tracer = Tracer()
        if workload == "cli_oneshot":
            result["traced"] = closed_loop(cli.ops(tracer), seconds / 2)
        else:
            tracer.install()
            result["traced"] = closed_loop(ops, seconds / 2, tracer)
            tracer.uninstall()
        result["totals"] = tracer.report()
    who = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
    result["peak_rss_kib"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
