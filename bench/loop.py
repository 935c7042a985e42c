"""The closed loop shared by all workloads: one client, the next op only
after the previous one completes and has been checked."""

from __future__ import annotations

import json
import time

MAX_REASONS = 5


def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are refused."""
    def refuse(token: str):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def closed_loop(ops: list, seconds: float, tracer=None) -> dict:
    """Run `(run, check)` pairs in turn for `seconds`, at least one op.

    Only `run` is timed and traced; `check(out)` returns None when the output
    is correct and a reason otherwise.  An op that raises counts as failed."""
    latencies, reasons, failed = [], [], 0
    start = time.perf_counter()
    deadline = start + seconds
    while not latencies or time.perf_counter() < deadline:
        run, check = ops[len(latencies) % len(ops)]
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = run()
            reason = None
        except Exception as e:
            reason = f"raised {type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if reason is None:
            try:
                reason = check(out)
            except Exception as e:
                reason = f"check raised {type(e).__name__}: {e}"
        if reason is not None:
            failed += 1
            if len(reasons) < MAX_REASONS:
                reasons.append(f"op {len(latencies)}: {reason}")
        latencies.append(dt)
    return {"ops": len(latencies), "failed": failed, "elapsed_s": time.perf_counter() - start,
            "latencies": latencies, "reasons": reasons}
