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
from dataclasses import asdict
from pathlib import Path

from . import entropy, functional_eq, quantize, statmech
from .distributions import (
    binned_from_json,
    check_positive,
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


def parse_args(argv: list[str]) -> argparse.Namespace:
    return build_parser().parse_args(argv)


# -- handlers ------------------------------------------------------------------


def _k(ns: argparse.Namespace) -> float:
    """The unit constant: --k when given, else the --unit preset."""
    if ns.k is not None:
        return check_positive(ns.k, "--k")
    return unit_to_k(ns.unit)


def _input_text(ns: argparse.Namespace, flag: str) -> str:
    """The text given by `flag` or by --input, whichever is set: a `flag`
    value starting with [ or { is inline JSON, and any other value names a
    file, as --input always does."""
    value = getattr(ns, flag)
    if value is not None and value.lstrip()[:1] in ("[", "{"):
        return value
    path = ns.input if value is None else value
    if not Path(path).is_file():
        raise FileNotFoundError(f"input file not found: {path}")
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"input file {path} is not UTF-8 text: {e}") from None


def _cmd_discrete(ns: argparse.Namespace) -> dict:
    text = _input_text(ns, "probs")
    if ns.renormalize:
        dist = renormalize(probs_from_json(text), tolerance=ns.tolerance)
    else:
        dist = discrete_from_json(text, tolerance=ns.tolerance)
    return entropy.shannon_entropy(dist, _k(ns)).to_json_obj()


def _cmd_total(ns: argparse.Namespace) -> dict:
    binned = binned_from_json(_input_text(ns, "data"), tolerance=ns.tolerance)
    return entropy.total_entropy(binned, _k(ns)).to_json_obj()


def _cmd_differential(ns: argparse.Namespace) -> dict:
    density = density_from_json(_input_text(ns, "density"))
    return quantize.differential_entropy(density, _k(ns)).to_json_obj()


def _cmd_modified(ns: argparse.Namespace) -> dict:
    density = density_from_json(_input_text(ns, "density"))
    return statmech.modified_differential_entropy(density, ns.h, _k(ns)).to_json_obj()


def _cmd_quantize(ns: argparse.Namespace) -> dict:
    density = density_from_json(_input_text(ns, "density"))
    return quantize.quantize_density(density, ns.h).to_json_obj()


def _cmd_converge(ns: argparse.Namespace) -> dict | str:
    density = density_from_json(_input_text(ns, "density"))
    if ns.halvings < 1:
        raise ValidationError("--halvings must be >= 1")
    h_values = [ns.h_start * 2.0**-j for j in range(ns.halvings)]
    rows = quantize.convergence_sweep(density, h_values, _k(ns))
    if ns.format == "csv":
        return quantize.convergence_csv(rows)
    return {"rows": [asdict(r) for r in rows]}


def _cmd_axioms(ns: argparse.Namespace) -> dict:
    report = entropy.run_axiom_suite(
        seed=ns.seed,
        n_distributions=ns.n_dists,
        max_n=ns.max_n,
        additivity_pairs=ns.additivity_pairs,
        majorization_pairs=ns.majorization_pairs,
        k=_k(ns),
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


def _cmd_fit_phi(ns: argparse.Namespace) -> dict:
    # --data is raw CSV text, never a path
    samples = _parse_phi_csv(ns.data if ns.data is not None else _input_text(ns, "data"))
    return functional_eq.fit_log_affine(samples).to_json_obj()


def _cmd_statmech(ns: argparse.Namespace) -> dict:
    shell = statmech.ShellSpec(
        E=ns.E,
        dE=ns.dE,
        V=ns.V,
        N=ns.N,
        m=ns.mass,
        planck_h=ns.planck_h,
        indistinguishable=ns.indistinguishable,
    )
    k = _k(ns)
    if ns.action == "compare":
        ln_omega = ns.ln_omega
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


def _serialize(payload: dict | str) -> str:
    """CSV text as it is; JSON strictly per RFC 8259, so a non-finite
    float raises instead of printing NaN or Infinity."""
    if isinstance(payload, str):
        return payload
    return json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"


def _emit(payload: dict | str) -> None:
    sys.stdout.write(_serialize(payload))


def run(ns: argparse.Namespace) -> int:
    """Execute a parsed command; always leaves a JSON/CSV body on stdout."""
    try:
        body = _serialize(_HANDLERS[ns.subcommand](ns))
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
    sys.stdout.write(body)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        ns = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else EXIT_USAGE
    return run(ns)


if __name__ == "__main__":
    sys.exit(main())
