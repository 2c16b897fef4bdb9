"""Command-line interface.

Subcommands: solve, sample, curves, lambda, entropy-production, verify.
Data outputs are CSV with 17-significant-digit numbers, comma delimiter,
LF newlines, and no timestamps, so identical inputs give identical bytes.
Errors are reported as machine-readable JSON on stderr with distinct exit
codes:

    0  success            3  malformed input
    1  generic error /    4  accuracy-window violation
       failed checks      5  bracket or convergence failure
    2  vacuum solution    6  domain error (invalid physical arguments)
"""

import argparse
import json
import math
import os
import sys

from . import eos, riemann, verify, waves
from .eos import GasKind
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    SyngeError,
    WindowError,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VACUUM = 2
EXIT_BAD_INPUT = 3
EXIT_WINDOW = 4
EXIT_BRACKET = 5
EXIT_DOMAIN = 6

ENV_WINDOW = "SYNGE_GAMMA_WINDOW"


def _fmt(x):
    return f"{x:.17g}"


def _window_from_env():
    raw = os.environ.get(ENV_WINDOW)
    if not raw:
        return eos.DEFAULT_WINDOW
    try:
        lo, hi = (float(part) for part in raw.split(","))
    except ValueError as exc:
        raise DomainError(f"malformed {ENV_WINDOW}={raw!r} (expected 'min,max')") from exc
    if not 0.0 < lo < hi:
        raise DomainError(f"invalid {ENV_WINDOW}={raw!r}")
    return (lo, hi)


def _gas(name):
    try:
        return GasKind(name)
    except ValueError:
        raise DomainError(f"unknown gas {name!r} (monatomic or diatomic)")


def _emit_error(kind, message, code):
    json.dump({"error": {"kind": kind, "message": message, "code": code}}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _state_from_json(gas, obj, window):
    try:
        rho, v, p = float(obj["rho"]), float(obj["v"]), float(obj["p"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _MalformedInput(f"state object needs numeric rho, v, p: {obj!r}") from exc
    return eos.state_from_primitive(gas, rho, v, p, window=window)


class _MalformedInput(Exception):
    pass


def _log_grid(lo, hi, n):
    return [math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * i / (n - 1)) for i in range(n)]


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _MalformedInput(f"cannot read JSON from {path}: {exc}") from exc


def _resolve_solution(path, window):
    """Solve the problem in a problem (or solution) JSON document."""
    doc = _load_json(path)
    try:
        gas = _gas(doc["gas"])
        left = _state_from_json(gas, doc["left"], window)
        right = _state_from_json(gas, doc["right"], window)
    except KeyError as exc:
        raise _MalformedInput(f"JSON document missing key: {exc}") from exc
    return riemann.solve(riemann.RiemannInput(gas=gas, left=left, right=right))


def _cmd_solve(args, window):
    sol = _resolve_solution(args.infile, window)
    _write_text(args.out, sol.to_json() + "\n")
    return EXIT_VACUUM if sol.vacuum else EXIT_OK


def _cmd_sample(args, window):
    sol = _resolve_solution(args.solution, window)
    if args.n < 2:
        raise DomainError("--n must be >= 2")
    xis = [
        args.xi_min + (args.xi_max - args.xi_min) * i / (args.n - 1) for i in range(args.n)
    ]
    _write_text(args.out, riemann.sample_csv(sol, xis))
    return EXIT_OK


def _cmd_curves(args, window):
    gas = _gas(args.gas)
    anchor = eos.state_from_primitive(gas, args.rho, args.v, args.p, window=window)
    if args.n < 2:
        raise DomainError("--n must be >= 2")
    lo, hi = args.p_min, args.p_max
    if not 0.0 < lo < hi:
        raise DomainError(f"invalid pressure range [{lo!r}, {hi!r}]")
    grid = _log_grid(lo, hi, args.n)
    table = waves.wave_curve(gas, anchor, args.family, grid, window=window)
    _write_text(args.out, table.to_csv())
    return EXIT_OK


def _cmd_lambda(args, window):
    if args.n < 2:
        raise DomainError("--n must be >= 2")
    lo, hi = args.gamma_min, args.gamma_max
    if not 0.0 < lo < hi:
        raise DomainError(f"invalid gamma range [{lo!r}, {hi!r}]")
    grid = _log_grid(lo, hi, args.n)
    gases = (
        (GasKind.MONATOMIC, GasKind.DIATOMIC) if args.gas == "both" else (_gas(args.gas),)
    )
    if len(gases) == 2:
        lines = ["gamma,lambda3_monatomic,lambda3_diatomic"]
        for g in grid:
            a = eos.rest_frame_speed(GasKind.MONATOMIC, g, window=window)
            b = eos.rest_frame_speed(GasKind.DIATOMIC, g, window=window)
            lines.append(f"{_fmt(g)},{_fmt(a)},{_fmt(b)}")
    else:
        lines = ["gamma,lambda3"]
        for g in grid:
            lines.append(f"{_fmt(g)},{_fmt(eos.rest_frame_speed(gases[0], g, window=window))}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_entropy_production(args, window):
    gas = _gas(args.gas)
    left = eos.state_from_primitive(gas, args.rho, args.v, args.p, window=window)
    if args.n < 2:
        raise DomainError("--n must be >= 2")
    lo, hi = args.p_min, args.p_max
    if not left.p <= lo < hi:
        raise DomainError(
            f"shock-strength range must satisfy p_left <= p_min < p_max, got [{lo!r}, {hi!r}]"
        )
    grid = _log_grid(lo, hi, args.n)
    lines = ["sbar,eta_hat"]
    for p in grid:
        sp = waves.shock_state(gas, left, args.family, p, window=window)
        eta = waves.entropy_production(gas, left, sp.state, sp.s)
        lines.append(f"{_fmt(sp.s)},{_fmt(eta)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_verify(args, window):
    gas_filter = None if args.gas == "both" else _gas(args.gas)
    report = verify.run_checks(
        gas_filter=gas_filter,
        gamma_min=args.gamma_min,
        gamma_max=args.gamma_max,
        points=args.points,
        spacing=args.spacing,
        window=window,
    )
    if args.out:
        _write_text(args.out, report.to_json() + "\n")
    sys.stdout.write(report.to_table())
    return EXIT_OK if report.all_passed else EXIT_ERROR


def build_parser():
    p = argparse.ArgumentParser(
        prog="synge-riemann",
        description=(
            "Exact Riemann solver for the 1-D relativistic Euler equations "
            "closed by the Synge (kinetic-theory) energy, with a modified-"
            "Bessel engine and an analytic-inequality verification suite."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve a Riemann problem from JSON data")
    s.add_argument("--in", dest="infile", required=True, help="problem JSON path")
    s.add_argument("--out", required=True, help="solution JSON path")

    s = sub.add_parser("sample", help="sample a solution on a xi = x/t grid")
    s.add_argument("--solution", required=True, help="solution (or problem) JSON path")
    s.add_argument("--xi-min", type=float, required=True)
    s.add_argument("--xi-max", type=float, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--out", required=True, help="CSV output path")

    s = sub.add_parser("curves", help="tabulate a composite wave curve")
    s.add_argument("--gas", required=True, choices=["monatomic", "diatomic"])
    s.add_argument("--rho", type=float, required=True)
    s.add_argument("--v", type=float, required=True, help="in units of c")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--family", type=int, required=True, choices=[1, 3])
    s.add_argument("--p-min", type=float, required=True)
    s.add_argument("--p-max", type=float, required=True)
    s.add_argument("--n", type=int, default=101)
    s.add_argument("--out", required=True)

    s = sub.add_parser("lambda", help="rest-frame characteristic speed vs coldness")
    s.add_argument("--gas", default="both", choices=["monatomic", "diatomic", "both"])
    s.add_argument("--gamma-min", type=float, required=True)
    s.add_argument("--gamma-max", type=float, required=True)
    s.add_argument("--n", type=int, default=1001)
    s.add_argument("--out", required=True)

    s = sub.add_parser("entropy-production", help="entropy production along a shock family")
    s.add_argument("--gas", required=True, choices=["monatomic", "diatomic"])
    s.add_argument("--rho", type=float, required=True)
    s.add_argument("--v", type=float, required=True, help="in units of c")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--family", type=int, default=1, choices=[1, 3])
    s.add_argument("--p-min", type=float, required=True)
    s.add_argument("--p-max", type=float, required=True)
    s.add_argument("--n", type=int, default=50)
    s.add_argument("--out", required=True)

    s = sub.add_parser("verify", help="run the analytic-inequality check catalog")
    s.add_argument("--gas", default="both", choices=["monatomic", "diatomic", "both"])
    s.add_argument("--gamma-min", type=float, default=1e-6)
    s.add_argument("--gamma-max", type=float, default=1e4)
    s.add_argument("--points", type=int, default=10000)
    s.add_argument("--spacing", default="log", choices=["log", "linear"])
    s.add_argument("--out", help="optional JSON report path")

    return p


_DISPATCH = {
    "solve": _cmd_solve,
    "sample": _cmd_sample,
    "curves": _cmd_curves,
    "lambda": _cmd_lambda,
    "entropy-production": _cmd_entropy_production,
    "verify": _cmd_verify,
}


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        window = _window_from_env()
        return _DISPATCH[args.command](args, window)
    except _MalformedInput as exc:
        return _emit_error("malformed-input", str(exc), EXIT_BAD_INPUT)
    except WindowError as exc:
        return _emit_error("window", str(exc), EXIT_WINDOW)
    except (BracketError, ConvergenceError) as exc:
        return _emit_error("bracket", str(exc), EXIT_BRACKET)
    except DomainError as exc:
        return _emit_error("domain", str(exc), EXIT_DOMAIN)
    except SyngeError as exc:  # pragma: no cover - catch-all for library errors
        return _emit_error("error", str(exc), EXIT_ERROR)


def main():  # console-script entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
