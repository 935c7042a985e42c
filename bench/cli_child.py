"""Traced stand-in for `python -m entrokit`, run per op by the cli_oneshot
traced phase.

    python bench/cli_child.py REPORT_PATH ARGV...

Times the imports entrokit makes, then calls cli.parse_args and cli.run
with every layer wrapped and stdout captured.  It writes the captured
output to stdout, the span totals to REPORT_PATH, and exits with run's code.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from layers import ImportTimer, Tracer


def main() -> int:
    report_path, argv = Path(sys.argv[1]), sys.argv[2:]
    with ImportTimer() as imports:
        import entrokit.cli
    cli = sys.modules["entrokit.cli"]

    t0 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    overhead_s = time.perf_counter() - t0
    captured = io.StringIO()
    tracer.active = True
    with redirect_stdout(captured):
        try:
            code = cli.run(cli.parse_args(argv))
        except SystemExit as e:  # usage errors, as cli.main maps them
            code = e.code if isinstance(e.code, int) else cli.EXIT_USAGE
    tracer.active = False
    t0 = time.perf_counter()
    tracer.uninstall()
    overhead_s += time.perf_counter() - t0

    out = captured.getvalue()
    sys.stdout.write(out)
    report = {**tracer.report(), "imports": imports.totals(),
              "stdout_bytes": len(out.encode()), "overhead_s": overhead_s}
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
