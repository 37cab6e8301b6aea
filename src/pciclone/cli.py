"""Command-line surface: reports, sweeps, searches, and verification.

Subcommands and the options each one reads:

    report    closed-form noise report for counts (N, N', M); --split
              reads (n, a, M) instead
    sweep     noise-vs-asymmetry table for fixed n over several M;
              --a-steps
    optimize  best conjugate fraction a* for (n, M)
    solve     constrained amplifier search for (alpha, beta, gamma); --tol
    verify    build a machine, sample it, compare with the predictions;
              optional positional samples and seed, --psi, --tol

Every subcommand takes --out (write to a file) and --format (json or
csv; sweep defaults to csv, the others to json).  The PCICLONE_TOL
environment variable supplies the certificate tolerance of solve and
verify when --tol is not given.

Exit codes: 0 success, 1 failed verification, 2 domain error or an
input too large for memory, 3 non-convergence, 4 output could not be
written (an unwritable --out path, or a closed standard output).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .canonical import commutation_residual
from .errors import ConvergenceError, DomainError, _require_tolerance, require_finite
from .gaussian import _certificate
from .machine import (
    CloningConfig,
    _network,
    _require_memory,
    _split_gain_noise,
    attenuates,
    noise_report,
)
from .montecarlo import (
    STREAM_VERSION,
    _Z_COLUMNS,
    SampleConfig,
    compare_to_analytic,
    simulate,
)
from .optimize import minimize_asymmetry, solve_amplifier

SWEEP_HEADER = "n,M,a,N,Nc,G,n_th,sqrt_n_th"
SWEEP_COLUMNS = SWEEP_HEADER.split(",")
DEFAULT_TOL = 1e-10
# The layout of verify's JSON.  Version 2 summarizes the z table by role
# (``ComparisonSummary.to_dict``); version 1 printed it whole, as the CSV
# output still does.
OUTPUT_VERSION = 2


class OutputError(Exception):
    """The command's output could not be written (exit code 4)."""


def _fmt(value) -> str:
    # 17 significant digits: every float round-trips exactly.
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _resolve_tol(args) -> float:
    tol = args.tol
    if tol is None:
        env = os.environ.get("PCICLONE_TOL")
        if not env:
            return DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError:
            raise DomainError(f"PCICLONE_TOL={env!r} is not a number") from None
    _require_tolerance(tol)
    return tol


def _write(rows, fmt: str, out_path: str | None, columns=None):
    """Write one row (a dict) or a list of rows as JSON, or as CSV under
    one header line of ``columns`` (default: the first row's keys)."""
    if fmt == "json":
        # Compact: an indent would run json's pure-Python encoder.
        text = json.dumps(rows, allow_nan=False)
    else:
        rows = [rows] if isinstance(rows, dict) else rows
        columns = columns or list(rows[0])
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines)
    try:
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        raise OutputError(f"cannot write output: {exc}") from exc


def _as_count(value: float, label: str, slack: float = 0.0) -> int:
    require_finite(**{label: value})
    rounded = round(value)
    if abs(value - rounded) > slack:
        raise DomainError(f"{label} must be an integer, got {value}")
    return rounded


def cmd_report(args) -> int:
    if args.split:
        n, a = _as_count(args.x1, "n"), args.x2
        if not 0.0 <= a <= 1.0:
            raise DomainError(f"conjugate fraction must lie in [0, 1], got {a}")
        # a*n is one rounded product of a <= 1 and n, and a the nearest
        # float to the intended fraction: together off by at most |n| eps.
        n_conj = _as_count(a * n, "a*n", abs(n) * sys.float_info.epsilon)
        n_sig = n - n_conj
    else:
        n_sig, n_conj = _as_count(args.x1, "N"), _as_count(args.x2, "Nc")
    config = CloningConfig(n_sig, n_conj, _as_count(args.x3, "M"))
    _write(noise_report(config).to_dict(), args.format, args.out)
    return 0


def cmd_sweep(args) -> int:
    require_finite(n=args.n)
    if args.n <= 0:
        raise DomainError(f"total replica count must be > 0, got {args.n}")
    for m in args.clones:
        require_finite(M=m)
        if m <= 0:
            raise DomainError(f"clone count must be > 0, got {m}")
    if args.a_steps < 1:
        raise DomainError(f"--a-steps must be >= 1, got {args.a_steps}")
    n = args.n
    a_grid = np.linspace(0.0, 1.0, args.a_steps).tolist()
    rows = []
    for m in sorted(args.clones):
        for a in a_grid:
            if attenuates(n, m, a):
                continue  # attenuation corner of the (M, a) plane
            gain, n_th = _split_gain_noise(n, m, a)
            values = (n, m, a, (1.0 - a) * n, a * n, gain, n_th, math.sqrt(n_th))
            rows.append(dict(zip(SWEEP_COLUMNS, values)))
    _write(rows, args.format, args.out, SWEEP_COLUMNS)
    return 0


def cmd_optimize(args) -> int:
    _write(minimize_asymmetry(args.n, args.m).to_dict(), args.format, args.out)
    return 0


def cmd_solve(args) -> int:
    result = solve_amplifier(args.alpha, args.beta, args.gamma, tol=_resolve_tol(args))
    _write(result.to_dict(), args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    tol = _resolve_tol(args)
    config = CloningConfig(args.n_sig, args.n_con, args.m)
    sampling = SampleConfig(sample_count=args.samples, seed=args.seed, psi=args.psi)
    _require_memory(config, sampling.sample_count)
    # Only the machine's stages are built: one probe bound read through
    # them certifies both residuals, and the sampler pushes F through them.
    t_start = time.perf_counter()
    network, layout = _network(config)
    t_built = time.perf_counter()
    residual = commutation_residual(network)
    structural_pass = residual <= tol
    t_certified = t_sampled = t_scored = time.perf_counter()
    # A machine that fails its certificate has failed verification and
    # is not sampled: it has no z table.  The JSON summarizes the table,
    # the CSV prints it one row per mode.
    summary = None
    if structural_pass:
        emp = simulate(network, layout, sampling)
        t_sampled = time.perf_counter()
        summary = compare_to_analytic(emp, noise_report(config), layout)
        t_scored = time.perf_counter()
    passed = structural_pass and summary.passed
    if args.format == "csv":
        rows = summary.rows if summary else []
        _write(rows, "csv", args.out, ["mode", "role", *_Z_COLUMNS])
    else:
        doc = {
            "N": config.n_inputs,
            "Nc": config.n_conj,
            "M": config.m_clones,
            "Mc": config.m_anticlones,
            "samples": args.samples,
            "seed": args.seed,
            "psi": [args.psi.real, args.psi.imag],
            "commutation_residual": residual,
            "symplectic_residual": residual,
            "structural_tol": tol,
            "structural_pass": structural_pass,
            "comparison": summary.to_dict() if summary else None,
            "passed": passed,
            "meta": {
                "version": __version__,
                "output_version": OUTPUT_VERSION,
                "stream_version": STREAM_VERSION,
                "seed": args.seed,
                "certificate": _certificate(network.mode_count),
            },
            "timings": {
                "build_s": t_built - t_start,
                "certificates_s": t_certified - t_built,
                "sampling_s": t_sampled - t_certified,
                "scoring_s": t_scored - t_sampled,
            },
        }
        _write(doc, "json", args.out)
    return 0 if passed else 1


def _add_output(sub, default_format: str):
    sub.add_argument("--out", default=None, help="write output to this path")
    sub.add_argument("--format", choices=("json", "csv"), default=default_format)


def _add_tol(sub):
    sub.add_argument("--tol", type=float, default=None,
                     help="certificate tolerance (default PCICLONE_TOL, "
                          f"else {DEFAULT_TOL:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pciclone",
        description="Coherent-state cloning with phase-conjugate inputs: "
                    "closed-form reports, asymmetry sweeps, amplifier "
                    "search, and sampled verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("report", help="noise report for counts (N, Nc, M)")
    p.add_argument("x1", type=float, help="N, or n with --split")
    p.add_argument("x2", type=float, help="Nc, or a with --split")
    p.add_argument("x3", type=float, help="M")
    p.add_argument("--split", action="store_true",
                   help="interpret arguments as (n, a, M) with Nc = a*n")
    _add_output(p, "json")
    p.set_defaults(func=cmd_report)

    p = subs.add_parser("sweep", help="noise vs asymmetry table for fixed n")
    p.add_argument("n", type=float, help="total replica count")
    p.add_argument("clones", type=float, nargs="+", help="clone counts M")
    p.add_argument("--a-steps", type=int, default=1001,
                   help="grid points on a in [0, 1] (default 1001)")
    _add_output(p, "csv")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("optimize", help="best conjugate fraction for (n, M)")
    p.add_argument("n", type=float, help="total replica count")
    p.add_argument("m", type=float, help="clone count M")
    _add_output(p, "json")
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("solve", help="amplifier search for (alpha, beta, gamma)")
    p.add_argument("alpha", type=float)
    p.add_argument("beta", type=float)
    p.add_argument("gamma", type=float)
    _add_tol(p)
    _add_output(p, "json")
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("verify", help="sample a machine against predictions")
    p.add_argument("n_sig", type=int, help="signal replica count N")
    p.add_argument("n_con", type=int, help="conjugate replica count Nc")
    p.add_argument("m", type=int, help="clone count M")
    p.add_argument("samples", type=int, nargs="?", default=100_000)
    p.add_argument("seed", type=int, nargs="?", default=0, help="RNG seed")
    p.add_argument("--psi", type=complex, default=1 + 0.5j,
                   help="input amplitude, e.g. '0.8-0.4j'")
    _add_tol(p)
    _add_output(p, "json")
    p.set_defaults(func=cmd_verify)
    return parser


def _report_error(message: str) -> None:
    """Print ``message`` on stderr, ignoring a failed write as argparse
    does, so that the exit code stays the handler's."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, MemoryError) as exc:
        # numpy names the allocation that failed; a bare MemoryError is empty.
        _report_error(str(exc) or "out of memory")
        return 2
    except ConvergenceError as exc:
        _report_error(str(exc))
        return 3
    except OutputError as exc:
        _report_error(str(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
