"""Command-line front end for the verification suites.

Each subcommand runs one suite, prints a short human summary to stdout,
and optionally writes a machine-readable report (format chosen by the
output extension: .json or .csv).  JSON reports embed the fully resolved
configuration, keys are sorted, and floats are serialized via repr, so
identical flags and seed produce byte-identical files.

Exit codes: 0 when every check passes, 1 when a verification fails, and 2
for usage errors (bad flags, values outside an operation's domain,
malformed model files).
"""

from __future__ import annotations

import argparse
import csv
import json
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


def _emit(args, payload, table=None) -> None:
    """Write payload as JSON, or table = (header, rows) as CSV, by the
    --output extension."""
    path = getattr(args, "output", None)
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


def _config(args, fields) -> dict:
    return {name: getattr(args, name.replace("-", "_")) for name in fields}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_curvature(args) -> int:
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
    payload = {
        "command": "curvature",
        "config": _config(
            args, ["model", "n", "eps", "tol", "samples", "seed"]
        ),
        "identities": report.to_dict(),
        "hypotheses": hyp.to_dict(),
        "tw_curvature_max_abs": float(np.max(np.abs(curv_tw.riem))),
    }
    _emit(args, payload)
    n_fail = len(report.failed_identities())
    print(
        f"identities: {len(report.identities)} checked, {n_fail} failed "
        f"(tol {args.tol:g})"
    )
    if report.precondition_failures:
        print("preconditions violated: " + "; ".join(report.precondition_failures))
    print(f"canonical-connection curvature max |entry|: {payload['tw_curvature_max_abs']:.3e}")
    print(
        f"hypotheses hold: {hyp.holds} "
        f"(min sectional {hyp.min_sectional:.3e}, "
        f"min orthogonal sum {hyp.min_orthogonal_sum:.3e})"
    )
    ok = report.passed and hyp.holds
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_riccati(args) -> int:
    params = RiccatiParams(b=args.b, c=args.c, n=args.n)
    ts = _parse_range(args.t)
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
        err3 = 0.0
        if params.n > 1:
            err3 = float(np.max(np.abs(sol.F3[k] - f3c * np.eye(2 * params.n - 2))))
            err3 /= max(1.0, abs(f3c))
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
    payload = {
        "command": "riccati",
        "config": _config(args, ["b", "c", "n", "t", "tol"]),
        "points": rows,
        "max_rel_error": worst,
    }
    header = ["t", "tr_F1_closed", "tr_F1_ode", "f3_closed", "rel_error"]
    _emit(args, payload, (header, [[r[k] for k in header] for r in rows]))
    print(
        f"closed forms vs ODE at {len(ts)} point(s): "
        f"max relative deviation {worst:.3e} (tol {args.tol:g})"
    )
    ok = worst <= args.tol
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_conjugate(args) -> int:
    params = RiccatiParams(b=args.b, c=args.c, n=args.n)
    t_star = conjugate_time(params, t_max=args.t_max)
    payload = {
        "command": "conjugate",
        "config": _config(args, ["b", "c", "n", "t-max"]),
        "c": args.c,
        "vertical_momentum": 2.0 * args.c,
        "t_star": None if t_star is None else float(t_star),
    }
    _emit(args, payload)
    if t_star is None:
        print(f"no conjugate time in (0, {args.t_max:g}]")
    else:
        print(f"first conjugate time: {t_star:.10f}")
    return 0


def _cmd_mcp_scan(args) -> int:
    b, c, t = _parse_range(args.b), _parse_range(args.c), _parse_range(args.t)
    if len(b) < 2 or len(c) < 2 or len(t) < 2:
        raise McplabError("mcp-scan needs lo:hi:count ranges for --b, --c, --t")
    if len(b) != len(c) or len(c) != len(t):
        raise McplabError("mcp-scan ranges must share one count")
    resolution = len(b)
    report = mcp_scan(
        args.n,
        b_range=(float(b[0]), float(b[-1])),
        c_range=(float(c[0]), float(c[-1])),
        t_range=(float(t[0]), float(t[-1])),
        resolution=resolution,
        tol=args.tol,
    )
    payload = {
        "command": "mcp-scan",
        "config": _config(args, ["n", "b", "c", "t", "tol"]),
        "report": report.to_dict(),
    }
    _emit(args, payload)
    am = report.argmin
    print(
        f"min ratio {report.min_ratio:.12f} at b={am[0]:g} c={am[1]:g} t={am[2]:g}; "
        f"violations: {len(report.violations)}"
    )
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def _cmd_sharpness(args) -> int:
    value = float(sharpness_scan(args.n, args.t, b_max=args.b_max))
    payload = {
        "command": "sharpness",
        "config": _config(args, ["n", "t", "b-max", "tol"]),
        "infimum_estimate": value,
        "exponent": 2 * args.n + 3,
    }
    _emit(args, payload)
    print(f"infimum of density/bound over (b, c): {value:.9f}")
    ok = value >= 1.0 - args.tol
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_contract(args) -> int:
    model = HeisenbergModel(n=args.n, eps=args.eps)
    spec = VelocitySet(
        horizontal_radius=args.radius, vertical_momentum=args.momentum
    )
    x0 = np.zeros(model.dim)
    result = monte_carlo_contraction(
        model,
        x0,
        spec,
        t=args.t,
        samples=args.samples,
        seed=args.seed,
    )
    quad = float(quadrature_contraction(model, spec, t=args.t))
    consistent = abs(result.ratio - quad) <= 3.0 * result.std_error
    payload = {
        "command": "contract",
        "config": _config(
            args,
            ["n", "eps", "radius", "momentum", "t", "samples", "seed"],
        ),
        "monte_carlo": result.to_dict(),
        "quadrature": quad,
        "consistent_with_quadrature": consistent,
    }
    _emit(args, payload)
    print(
        f"ratio {result.ratio:.6f} +- {result.std_error:.2e} "
        f"(bound {result.bound:.6f}, quadrature {quad:.6f})"
    )
    if result.rejected_fraction:
        print(f"rejected {100 * result.rejected_fraction:.2f}% of samples")
    ok = result.passes and consistent
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_density_profile(args) -> int:
    params = RiccatiParams(b=args.b, c=args.c, n=args.n)
    ts = _parse_range(args.t)
    prof = density_profile(params, ts)
    ok = bool(np.all(prof.ratio >= 1.0 - args.tol))
    payload = {
        "command": "density-profile",
        "config": _config(args, ["b", "c", "n", "t", "tol"]),
        "t": [float(v) for v in prof.t_grid],
        "density": [float(v) for v in prof.density],
        "bound": [float(v) for v in prof.bound],
        "ratio": [float(v) for v in prof.ratio],
        "min_ratio": float(np.min(prof.ratio)),
    }
    rows = ([args.b, args.c, *row]
            for row in zip(prof.t_grid, prof.density, prof.bound, prof.ratio))
    _emit(args, payload, (["b", "c", "t", "density", "bound", "ratio"], rows))
    print(
        f"density over {len(ts)} point(s): min ratio to (1-t)^{2 * args.n + 3} "
        f"= {float(np.min(prof.ratio)):.12f}"
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


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

    def common(p):
        p.add_argument("--output", help="write a report (.json or .csv)")

    p = sub.add_parser("curvature", help="verify structure identities and hypotheses")
    p.add_argument("--heisenberg", action="store_true", help="use the model group")
    p.add_argument("--model", help="load a model from a JSON file")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("riccati", help="closed forms vs ODE integration")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", default="0.1:0.9:9", help="value or lo:hi:count")
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    common(p)
    p.set_defaults(func=_cmd_riccati)

    p = sub.add_parser("conjugate", help="first conjugate time")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t-max", type=float, default=1.0)
    common(p)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("mcp-scan", help="contraction inequality over a grid")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--b", default="0:10:50", help="lo:hi:count")
    p.add_argument("--c", default="-3:3:50", help="lo:hi:count")
    p.add_argument("--t", default="0.05:0.95:50", help="lo:hi:count")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    common(p)
    p.set_defaults(func=_cmd_mcp_scan)

    p = sub.add_parser("sharpness", help="infimum of density/bound at fixed t")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--b-max", type=float, default=1e4)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    common(p)
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("contract", help="Monte Carlo set contraction")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=2.0, help="|w_H| bound")
    p.add_argument("--momentum", type=float, default=5.0, help="|<w,V>| bound")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("density-profile", help="density vs bound on a t grid")
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", default="0:0.95:20", help="value or lo:hi:count")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    common(p)
    p.set_defaults(func=_cmd_density_profile)

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
        return args.func(args)
    except McplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
