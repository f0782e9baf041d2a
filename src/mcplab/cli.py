"""Command-line front end for the verification suites.

Each subcommand runs one suite and returns (ok, payload, lines, table):
its verdict (None for conjugate, which has none), the report's own
fields, the human summary for stdout, and the (header, rows) of its CSV
form or None.  main looks the subcommand up in _COMMANDS and does the
rest once for all of them: it adds "command" and "config" to the
payload, writes the report when --output is given (format chosen by the
extension: .json or .csv), prints the summary, then PASS or FAIL unless
ok is None, and maps the verdict to the exit code.  The config is
derived from the parsed flags (every flag but --output and --heisenberg,
under its flag name), so a report lists each flag of its subcommand.
JSON keys are sorted and floats are serialized via repr, so identical
flags and seed produce byte-identical files.

Exit codes: 0 when every check passes (or there is no verdict), 1 when a
verification fails, and 2 for usage errors (bad flags, values outside an
operation's domain, malformed model files) and for output that cannot be
written (an unwritable --output, a closed stdout).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .errors import McplabError
from .frame_algebra import (
    build_heisenberg_algebra,
    check_main_hypotheses,
    curvature,
    levi_civita,
    model_from_json,
    tanaka_webster,
    verify_structure_identities,
)
from .heisenberg import HeisenbergModel
from .mcp import (
    VelocitySet,
    density_profile,
    mcp_scan,
    monte_carlo_contraction,
    quadrature_contraction,
    sharpness_scan,
)
from .riccati import (
    RiccatiParams,
    build_blocks,
    closed_forms,
    conjugate_time,
    integrate_inverse_riccati,
)


# The most points a lo:hi:count range may hold.  density-profile holds
# about 160 bytes per point, so 10^6 points stay near 150 MB, like
# mcp._MAX_SCAN_POINTS.
_MAX_RANGE_COUNT = 1_000_000
# The largest --n.  curvature holds four (2n+1)^4-entry tensors, 2.8
# million entries (23 MB) each at n = 20, and the identity catalog traces
# at most 61 MB more while it contracts them with its stacks of vectors.
_MAX_N = 20
# The most count * (2n+1)^2 block entries of one riccati run, at about 64
# bytes each: about 130 MB.
_MAX_RICCATI_ENTRIES = 2_000_000


def _parse_range(text: str) -> np.ndarray:
    """Parse 'lo:hi:count' into a linspace, or a single float into a
    one-point array.  Locale-independent."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        if len(parts) != 3:
            raise ValueError
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or lo:hi:count, got {text!r}"
        ) from None
    if count < 2:
        raise argparse.ArgumentTypeError("range count must be >= 2")
    if count > _MAX_RANGE_COUNT:
        raise argparse.ArgumentTypeError(
            f"range count must be at most {_MAX_RANGE_COUNT}, got {count}"
        )
    return np.linspace(lo, hi, count)


def _tolerance(text: str) -> float:
    """argparse type of every --tol: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if 0.0 <= value < np.inf:
        return value
    raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    """One header line, then each row's floats via repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) for v in row] for row in rows)


def _emit(path, payload, table=None) -> None:
    """Write payload as JSON, or table = (header, rows) as CSV, to path by
    its extension; nothing when path is None."""
    if path is None:
        return
    try:
        if str(path).endswith(".json"):
            _write_json(path, payload)
        elif str(path).endswith(".csv"):
            if table is None:
                raise McplabError("this subcommand has no CSV form; use .json")
            _write_csv(path, *table)
        else:
            raise McplabError("output extension must be .csv or .json")
    except OSError as exc:
        raise McplabError(f"cannot write {path}: {exc.strerror}") from None


def _config(args) -> dict:
    """Every parsed flag but the subcommand, --output and --heisenberg,
    under its flag name."""
    return {
        name.replace("_", "-"): value
        for name, value in vars(args).items()
        if name not in ("command", "output", "heisenberg")
    }


# ---------------------------------------------------------------------------
# subcommands, each returning (ok, payload, lines, table)
# ---------------------------------------------------------------------------

def _cmd_curvature(args):
    if args.model and args.heisenberg:
        raise McplabError("--model and --heisenberg are mutually exclusive")
    if args.model:
        try:
            alg, cs = model_from_json(args.model)
        except OSError as exc:
            raise McplabError(f"cannot read {args.model}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise McplabError(f"{args.model} is not JSON: {exc}") from None
    else:
        alg, cs = build_heisenberg_algebra(args.n, args.eps)
    lc = levi_civita(alg)
    tw = tanaka_webster(alg, cs, lc)
    curv_lc = curvature(alg, lc)
    curv_tw = curvature(alg, tw)
    report = verify_structure_identities(
        alg, cs, lc, tw, curv_lc, curv_tw, tol=args.tol
    )
    hyp = check_main_hypotheses(
        curv_tw, cs, samples=args.samples, seed=args.seed, metric=alg.metric
    )
    tw_max = float(np.max(np.abs(curv_tw.riem)))
    payload = {
        "identities": report.to_dict(),
        "hypotheses": hyp.to_dict(),
        "tw_curvature_max_abs": tw_max,
    }
    n_fail = len(report.failed_identities())
    lines = [f"identities: {len(report.identities)} checked, {n_fail} failed "
             f"(tol {args.tol:g})"]
    if report.precondition_failures:
        lines.append("preconditions violated: "
                     + "; ".join(report.precondition_failures))
    lines.append(f"canonical-connection curvature max |entry|: {tw_max:.3e}")
    lines.append(
        f"hypotheses hold: {hyp.holds} "
        f"(min sectional {hyp.min_sectional:.3e}, "
        f"min orthogonal sum {hyp.min_orthogonal_sum:.3e})"
    )
    return report.passed and hyp.holds, payload, lines, None


def _cmd_riccati(args):
    params = RiccatiParams(b=args.b, c=args.c, n=args.n)
    ts = _parse_range(args.t)
    if len(ts) * (2 * args.n + 1) ** 2 > _MAX_RICCATI_ENTRIES:
        raise McplabError(
            f"{len(ts)} points at n = {args.n} exceed {_MAX_RICCATI_ENTRIES} "
            "block entries; use fewer points"
        )
    if np.any(ts <= 0.0) or np.any(ts >= 1.0):
        raise McplabError("t values must lie in (0, 1)")
    grid = np.concatenate(([0.0], ts))
    sol = integrate_inverse_riccati(params, build_blocks(params), grid)
    rows = []
    worst = 0.0
    for k, t in enumerate(ts, start=1):
        F1c, f3c = closed_forms(params, float(t))
        if sol.singular[k]:
            raise McplabError(
                f"ODE solution not invertible at t = {t} (conjugate point?)"
            )
        scale = max(1.0, float(np.max(np.abs(F1c))))
        err1 = float(np.max(np.abs(sol.F1[k] - F1c))) / scale
        err3 = float(np.max(np.abs(sol.F3[k] - f3c * np.eye(2 * params.n - 2)),
                            initial=0.0)) / max(1.0, abs(f3c))
        err = max(err1, err3)
        worst = max(worst, err)
        rows.append(
            {
                "t": float(t),
                "tr_F1_closed": float(np.trace(F1c)),
                "tr_F1_ode": float(sol.tr_F1[k]),
                "f3_closed": float(f3c),
                "rel_error": err,
            }
        )
    header = ["t", "tr_F1_closed", "tr_F1_ode", "f3_closed", "rel_error"]
    lines = [f"closed forms vs ODE at {len(ts)} point(s): "
             f"max relative deviation {worst:.3e} (tol {args.tol:g})"]
    return (worst <= args.tol, {"points": rows, "max_rel_error": worst}, lines,
            (header, [[r[k] for k in header] for r in rows]))


def _cmd_conjugate(args):
    params = RiccatiParams(b=args.b, c=args.c, n=args.n)
    t_star = conjugate_time(params, t_max=args.t_max)
    payload = {
        "c": args.c,
        "vertical_momentum": 2.0 * args.c,
        "t_star": None if t_star is None else float(t_star),
    }
    if t_star is None:
        line = f"no conjugate time in (0, {args.t_max:g}]"
    else:
        line = f"first conjugate time: {t_star:.10f}"
    return None, payload, [line], None


def _cmd_mcp_scan(args):
    b, c, t = _parse_range(args.b), _parse_range(args.c), _parse_range(args.t)
    if len(b) < 2 or len(c) < 2 or len(t) < 2:
        raise McplabError("mcp-scan needs lo:hi:count ranges for --b, --c, --t")
    if len(b) != len(c) or len(c) != len(t):
        raise McplabError("mcp-scan ranges must share one count")
    report = mcp_scan(
        args.n,
        b_range=(float(b[0]), float(b[-1])),
        c_range=(float(c[0]), float(c[-1])),
        t_range=(float(t[0]), float(t[-1])),
        resolution=len(b),
        tol=args.tol,
    )
    am = report.argmin
    lines = [f"min ratio {report.min_ratio:.12f} at b={am[0]:g} c={am[1]:g} "
             f"t={am[2]:g}; violations: {len(report.violations)}"]
    return report.ok, {"report": report.to_dict()}, lines, None


def _cmd_sharpness(args):
    value = float(sharpness_scan(args.n, args.t, b_max=args.b_max))
    payload = {"infimum_estimate": value, "exponent": 2 * args.n + 3}
    lines = [f"infimum of density/bound over (b, c): {value:.9f}"]
    return value >= 1.0 - args.tol, payload, lines, None


def _cmd_contract(args):
    model = HeisenbergModel(n=args.n, eps=args.eps)
    spec = VelocitySet(
        horizontal_radius=args.radius, vertical_momentum=args.momentum
    )
    x0 = np.zeros(model.dim)
    result = monte_carlo_contraction(
        model, x0, spec, t=args.t, samples=args.samples, seed=args.seed
    )
    quad = float(quadrature_contraction(model, spec, t=args.t))
    consistent = abs(result.ratio - quad) <= 3.0 * result.std_error
    payload = {
        "monte_carlo": result.to_dict(),
        "quadrature": quad,
        "consistent_with_quadrature": consistent,
    }
    lines = [f"ratio {result.ratio:.6f} +- {result.std_error:.2e} "
             f"(bound {result.bound:.6f}, quadrature {quad:.6f})"]
    if result.rejected_fraction:
        lines.append(f"rejected {100 * result.rejected_fraction:.2f}% of samples")
    return result.passes and consistent, payload, lines, None


def _cmd_density_profile(args):
    params = RiccatiParams(b=args.b, c=args.c, n=args.n)
    ts = _parse_range(args.t)
    prof = density_profile(params, ts)
    min_ratio = float(np.min(prof.ratio))
    payload = {
        "t": [float(v) for v in prof.t_grid],
        "density": [float(v) for v in prof.density],
        "bound": [float(v) for v in prof.bound],
        "ratio": [float(v) for v in prof.ratio],
        "min_ratio": min_ratio,
    }
    rows = ([args.b, args.c, *row]
            for row in zip(prof.t_grid, prof.density, prof.bound, prof.ratio))
    lines = [f"density over {len(ts)} point(s): min ratio to "
             f"(1-t)^{2 * args.n + 3} = {min_ratio:.12f}"]
    return (bool(np.all(prof.ratio >= 1.0 - args.tol)), payload, lines,
            (["b", "c", "t", "density", "bound", "ratio"], rows))


_COMMANDS = {
    "curvature": _cmd_curvature,
    "riccati": _cmd_riccati,
    "conjugate": _cmd_conjugate,
    "mcp-scan": _cmd_mcp_scan,
    "sharpness": _cmd_sharpness,
    "contract": _cmd_contract,
    "density-profile": _cmd_density_profile,
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcplab",
        description="Numerical verification suites for contraction geometry "
        "on scaled Heisenberg groups.",
    )
    parser.add_argument("--version", action="version", version=f"mcplab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=1)
    common.add_argument("--output", help="write a report (.json or .csv)")

    def add(name, summary):
        return sub.add_parser(name, help=summary, parents=[common])

    p = add("curvature", "verify structure identities and hypotheses")
    p.add_argument("--heisenberg", action="store_true", help="use the model group")
    p.add_argument("--model", help="load a model from a JSON file")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = add("riccati", "closed forms vs ODE integration")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--t", default="0.1:0.9:9", help="value or lo:hi:count")
    p.add_argument("--tol", type=_tolerance, default=1e-6)

    p = add("conjugate", "first conjugate time")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--t-max", type=float, default=1.0)

    p = add("mcp-scan", "contraction inequality over a grid")
    p.add_argument("--b", default="0:10:50", help="lo:hi:count")
    p.add_argument("--c", default="-3:3:50", help="lo:hi:count")
    p.add_argument("--t", default="0.05:0.95:50", help="lo:hi:count")
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = add("sharpness", "infimum of density/bound at fixed t")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--b-max", type=float, default=1e4)
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = add("contract", "Monte Carlo set contraction")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=2.0, help="|w_H| bound")
    p.add_argument("--momentum", type=float, default=5.0, help="|<w,V>| bound")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("density-profile", "density vs bound on a t grid")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--t", default="0:0.95:20", help="value or lo:hi:count")
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    return parser


def _merge_negative_values(argv):
    """Join '--flag -3:3:50' into '--flag=-3:3:50' so argparse does not
    mistake a leading-minus value for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and re.match(r"^-(\d|\.\d)", nxt)
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 2
    try:
        if args.n > _MAX_N:
            raise McplabError(f"--n must be at most {_MAX_N}, got {args.n}")
        ok, payload, lines, table = _COMMANDS[args.command](args)
        payload = {"command": args.command, "config": _config(args), **payload}
        _emit(args.output, payload, table)
        for line in lines:
            print(line)
        if ok is not None:
            print("PASS" if ok else "FAIL")
        sys.stdout.flush()
        return 0 if ok is None or ok else 1
    except BrokenPipeError:
        # stdout was closed early (as by `| head -1`); point it at devnull
        # so that the interpreter's last flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write to standard output: broken pipe", file=sys.stderr)
        return 2
    except (McplabError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
