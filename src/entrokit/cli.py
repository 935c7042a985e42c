"""Batch command-line front end.

Envelope contract: on success one JSON object (or CSV where requested) on
stdout; on failure {"error": {"kind": ..., "message": ...}} on stdout with
diagnostics on stderr.  Exit codes: 0 success, 2 usage, 65 domain/data
error, 66 missing input file, 70 internal failure.  Output is deterministic
for fixed argv and seed; floats are serialized in full round-trip precision.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from . import entropy, functional_eq, quantize, statmech
from .distributions import (
    binned_from_json,
    check_k,
    density_from_json,
    discrete_from_json,
    probs_from_json,
    renormalize,
    unit_to_k,
)
from .errors import EntrokitError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_INTERNAL = 70


@dataclass(frozen=True)
class CommandSpec:
    """A fully parsed invocation: the subcommand plus its options, with the
    input source resolved to exactly one of inline text or a file path."""

    subcommand: str
    inline: str | None = None
    path: str | None = None
    unit: str = "nats"
    k: float | None = None
    output_format: str = "json"
    seed: int = 0
    options: dict[str, Any] = field(default_factory=dict)

    def resolved_k(self) -> float:
        if self.k is not None:
            return check_k(self.k, "--k")
        return unit_to_k(self.unit)

    def input_text(self) -> str:
        if self.inline is not None:
            return self.inline
        assert self.path is not None
        p = Path(self.path)
        if not p.is_file():
            raise FileNotFoundError(f"input file not found: {self.path}")
        return p.read_text()


def _looks_inline(value: str) -> bool:
    return value.lstrip()[:1] in ("[", "{")


def _add_unit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--unit", choices=("nats", "bits"), default="nats")
    sub.add_argument("--k", type=float, default=None, help="override the unit preset")


def _add_source(sub: argparse.ArgumentParser, flag: str, what: str) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument(flag, help=f"inline JSON {what}, or a path to a JSON file")
    grp.add_argument("--input", help=f"path to a file holding the {what}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrokit", description="entropy computations with stable JSON/CSV output"
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("discrete", help="Shannon entropy of a probability vector")
    _add_source(p, "--probs", "distribution")
    _add_unit_flags(p)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument(
        "--renormalize",
        action="store_true",
        help="explicitly rescale the input by its sum before computing",
    )

    p = subs.add_parser("total", help="total entropy of a binned variable")
    _add_source(p, "--data", "binned variable {values, probs, widths}")
    _add_unit_flags(p)
    p.add_argument("--tolerance", type=float, default=1e-9)

    for name, extra in (
        ("differential", "differential entropy of a density"),
        ("modified", "modified differential entropy of a density at width h"),
        ("quantize", "bin a density at width h"),
        ("converge", "total-vs-differential entropy sweep over halved widths"),
    ):
        p = subs.add_parser(name, help=extra)
        _add_source(p, "--density", "density spec {family, ...}")
        if name in ("modified", "quantize"):
            p.add_argument("--h", type=float, required=True)
        if name == "converge":
            p.add_argument("--h-start", type=float, required=True)
            p.add_argument("--halvings", type=int, required=True)
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if name != "quantize":
            _add_unit_flags(p)

    p = subs.add_parser("axioms", help="randomized axiom-verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-dists", type=int, default=10_000)
    p.add_argument("--max-n", type=int, default=64)
    p.add_argument("--additivity-pairs", type=int, default=1_000)
    p.add_argument("--majorization-pairs", type=int, default=1_000)
    _add_unit_flags(p)

    p = subs.add_parser("fit-phi", help="fit g = A ln p + B to (p, phi_prime) CSV rows")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--data", help="inline CSV rows 'p,phi_prime'")
    grp.add_argument("--input", help="path to a CSV file of p,phi_prime rows")

    p = subs.add_parser("statmech", help="microcanonical ideal-gas entropy")
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("ideal-gas", "compare"):
        a = actions.add_parser(action)
        a.add_argument("--E", type=float, required=True)
        a.add_argument("--dE", type=float, required=True)
        a.add_argument("--V", type=float, required=True)
        a.add_argument("--N", type=int, required=True)
        a.add_argument("--mass", type=float, default=1.0)
        a.add_argument("--planck-h", type=float, default=1.0)
        a.add_argument("--indistinguishable", action="store_true")
        _add_unit_flags(a)
        if action == "compare":
            a.add_argument(
                "--ln-omega",
                type=float,
                default=None,
                help="compare at a given log shell volume instead of the ideal-gas one",
            )
    return parser


def parse_args(argv: list[str]) -> CommandSpec:
    ns = build_parser().parse_args(argv)
    opts = vars(ns).copy()
    subcommand = opts.pop("subcommand")
    inline = None
    path = opts.pop("input", None)
    for flag in ("probs", "data", "density"):
        value = opts.pop(flag, None)
        if value is not None:
            # fit-phi's --data is raw CSV text; everywhere else the sigil
            # decides between inline JSON and a file path
            if subcommand == "fit-phi" or _looks_inline(value):
                inline = value
            else:
                path = value
    return CommandSpec(
        subcommand=subcommand,
        inline=inline,
        path=path,
        unit=opts.pop("unit", "nats"),
        k=opts.pop("k", None),
        output_format=opts.pop("format", "json"),
        seed=opts.pop("seed", 0),
        options=opts,
    )


# -- handlers ------------------------------------------------------------------


def _cmd_discrete(spec: CommandSpec) -> dict:
    text = spec.input_text()
    tol = spec.options["tolerance"]
    if spec.options["renormalize"]:
        dist = renormalize(probs_from_json(text), tolerance=tol)
    else:
        dist = discrete_from_json(text, tolerance=tol)
    return entropy.shannon_entropy(dist, spec.resolved_k()).to_json_obj()


def _cmd_total(spec: CommandSpec) -> dict:
    binned = binned_from_json(spec.input_text(), tolerance=spec.options["tolerance"])
    return entropy.total_entropy(binned, spec.resolved_k()).to_json_obj()


def _cmd_differential(spec: CommandSpec) -> dict:
    density = density_from_json(spec.input_text())
    return quantize.differential_entropy(density, spec.resolved_k()).to_json_obj()


def _cmd_modified(spec: CommandSpec) -> dict:
    density = density_from_json(spec.input_text())
    return statmech.modified_differential_entropy(
        density, spec.options["h"], spec.resolved_k()
    ).to_json_obj()


def _cmd_quantize(spec: CommandSpec) -> dict:
    density = density_from_json(spec.input_text())
    return quantize.quantize_density(density, spec.options["h"]).to_json_obj()


def _cmd_converge(spec: CommandSpec) -> dict | str:
    density = density_from_json(spec.input_text())
    halvings = spec.options["halvings"]
    if halvings < 1:
        raise ValidationError("--halvings must be >= 1")
    h_values = [spec.options["h_start"] * 2.0**-j for j in range(halvings)]
    rows = quantize.convergence_sweep(density, h_values, spec.resolved_k())
    if spec.output_format == "csv":
        return quantize.convergence_csv(rows)
    return {"rows": [asdict(r) for r in rows]}


def _cmd_axioms(spec: CommandSpec) -> dict:
    report = entropy.run_axiom_suite(
        seed=spec.seed,
        n_distributions=spec.options["n_dists"],
        max_n=spec.options["max_n"],
        additivity_pairs=spec.options["additivity_pairs"],
        majorization_pairs=spec.options["majorization_pairs"],
        k=spec.resolved_k(),
    )
    return report.to_json_obj()


def _parse_phi_csv(text: str) -> functional_eq.PhiPrimeSamples:
    rows: list[tuple[float, float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'p,phi_prime', got {line!r}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise ValidationError(f"line {lineno}: non-numeric row {line!r}") from None
    if not rows:
        raise ValidationError("no data rows found")
    return functional_eq.PhiPrimeSamples(tuple(rows))


def _cmd_fit_phi(spec: CommandSpec) -> dict:
    samples = _parse_phi_csv(spec.input_text())
    return functional_eq.fit_log_affine(samples).to_json_obj()


def _shell_spec(spec: CommandSpec) -> statmech.ShellSpec:
    o = spec.options
    return statmech.ShellSpec(
        E=o["E"],
        dE=o["dE"],
        V=o["V"],
        N=o["N"],
        m=o["mass"],
        planck_h=o["planck_h"],
        indistinguishable=o["indistinguishable"],
    )


def _cmd_statmech(spec: CommandSpec) -> dict:
    shell = _shell_spec(spec)
    k = spec.resolved_k()
    if spec.options["action"] == "compare":
        ln_omega = spec.options["ln_omega"]
        if ln_omega is None:
            ln_omega = statmech.log_phase_shell_volume(shell)
        return statmech.compare_entropy_forms(ln_omega, shell.planck_h, shell.N, k).to_json_obj()
    s = statmech.boltzmann_entropy(shell, k).value
    st = statmech.sackur_tetrode_entropy(shell, k).value
    return {
        "lnOmega": statmech.log_phase_shell_volume(shell),
        "S": s,
        "S_sackur_tetrode": st,
        "rel_diff": abs(s - st) / abs(st),
    }


_HANDLERS = {
    "discrete": _cmd_discrete,
    "total": _cmd_total,
    "differential": _cmd_differential,
    "modified": _cmd_modified,
    "quantize": _cmd_quantize,
    "converge": _cmd_converge,
    "axioms": _cmd_axioms,
    "fit-phi": _cmd_fit_phi,
    "statmech": _cmd_statmech,
}


def _emit(payload: dict | str) -> None:
    if isinstance(payload, str):
        sys.stdout.write(payload)
    else:
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def run(spec: CommandSpec) -> int:
    """Execute a parsed command; always leaves a JSON/CSV body on stdout."""
    try:
        payload = _HANDLERS[spec.subcommand](spec)
    except FileNotFoundError as e:
        _emit({"error": {"kind": "FileNotFound", "message": str(e)}})
        print(f"entrokit: {e}", file=sys.stderr)
        return EXIT_NOINPUT
    except EntrokitError as e:
        _emit({"error": {"kind": type(e).__name__, "message": str(e)}})
        print(f"entrokit: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:
        _emit({"error": {"kind": "InternalError", "message": f"{type(e).__name__}: {e}"}})
        print(f"entrokit: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    _emit(payload)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        spec = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else EXIT_USAGE
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
