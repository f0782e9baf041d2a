"""Command-line front end for the verification suites.

Each subcommand runs one suite and returns (ok, payload, lines, table):
its verdict (None for conjugate, which has none), the report's own
fields, the human summary for stdout, and the (header, rows) of its CSV
form or None.  main first checks the flags that need no numerical module
(--n, --output's directory and extension, --seed, --t-max and the
--model file), so a usage error there is found before numpy is loaded.
It then looks the subcommand up in _COMMANDS and does the rest once for
all of them: it adds "command" and "config" to the payload, writes the
report when --output is given (format chosen by the extension: .json,
or .csv for the _CSV_COMMANDS), prints the summary, then PASS or FAIL
unless ok is None, and maps the verdict to the exit code.  The config
is derived from the parsed flags (every flag but --output and
--heisenberg, under its flag name), so a report lists each flag of its
subcommand but the --n and --eps that a --model file replaces.  JSON
keys are sorted and floats are serialized via repr, so identical flags
and seed produce byte-identical files.

A range flag takes lo:hi:count or a single number (_parse_range).
mcp-scan scans the full grid of its three ranges, so their counts may
differ and any of them may be a single number.

Exit codes: 0 when every check passes (or there is no verdict), 1 when a
verification fails, and 2 for usage errors (bad flags, values outside an
operation's domain, malformed model files) and for output that cannot be
written (an unwritable --output, a closed stdout, an infinite JSON value).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import _MAX_N, __version__
from .errors import McplabError

# Where each library name that the subcommands call lives.  Importing this
# module loads none of them: main checks the flags first, and each
# subcommand then binds the names it calls (_bind), so --version, --help
# and a usage error return without loading numpy, and each subcommand
# loads only the modules it uses: conjugate, sharpness, density-profile
# and mcp-scan call names of scalars alone, on _parse_range's floats, and
# never load numpy.  A name read from outside the module (a caller that
# replaces it before main runs) is bound on first access by __getattr__;
# a name already bound is never rebound.
_SOURCES = {
    "np": "numpy",
    **dict.fromkeys(
        ("build_heisenberg_algebra", "check_main_hypotheses", "curvature",
         "levi_civita", "model_from_dict", "tanaka_webster",
         "verify_structure_identities"),
        ".frame_algebra",
    ),
    "HeisenbergModel": ".heisenberg",
    **dict.fromkeys(("VelocitySet", "monte_carlo_contraction", "quadrature_contraction"),
                    ".mcp"),
    **dict.fromkeys(("build_blocks", "closed_forms", "integrate_inverse_riccati"), ".riccati"),
    **dict.fromkeys(("RiccatiParams", "conjugate_time", "density_profile", "mcp_scan",
                     "sharpness_scan"), ".scalars"),
}


def __getattr__(name):
    """Import the module of a name in _SOURCES, bind the name here and
    return it (PEP 562); a source without a leading dot is the value.
    __import__ takes the import statement's path, which -X importtime
    reports (importlib.import_module does not)."""
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if source.startswith("."):
        module = __package__ + source
        __import__(module)
        value = getattr(sys.modules[module], name)
    else:
        value = __import__(source)
    globals()[name] = value
    return value


def _bind(*names) -> None:
    """Bind each of names that is not bound yet, through _SOURCES."""
    for name in names:
        if name not in globals():
            __getattr__(name)


# The most points a lo:hi:count range may hold.  density-profile's float
# lists hold about 100 bytes per point (tracemalloc), so 10^6 points stay
# near 100 MB.  mcp-scan holds no grid (scalars._MAX_SCAN_POINTS bounds
# its time, not its memory): beyond the parsed ranges, a point of its b
# axis costs it about 73 bytes and one of its c or t axis 16.
_MAX_RANGE_COUNT = 1_000_000
# The most count * (2n+1)^2 block entries of one riccati run, at about 64
# bytes each: about 130 MB.
_MAX_RICCATI_ENTRIES = 2_000_000


def _parse_range(text: str) -> list:
    """Parse 'lo:hi:count', with finite bounds and width, into the count
    floats of np.linspace(lo, hi, count), to the bit, or a single float
    into a one-item list.  Locale-independent."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
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
    delta = hi - lo
    if not math.isfinite(delta):
        raise argparse.ArgumentTypeError(
            f"range bounds and their difference must be finite, got {text!r}"
        )
    # np.linspace's arithmetic: i step + lo, or (i / (count - 1)) delta + lo
    # where the step is 0 (a subnormal width), and hi written last
    step = delta / (count - 1)
    if step == 0.0:
        points = [i / (count - 1) * delta + lo for i in range(count)]
    else:
        points = [i * step + lo for i in range(count)]
    points[-1] = hi
    return points


def _tolerance(text: str) -> float:
    """argparse type of every --tol: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if 0.0 <= value < math.inf:
        return value
    raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")


def _write_json(path, payload) -> None:
    """Serialize first: a value JSON cannot hold leaves no file."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise McplabError(f"cannot write {path}: a report value lies past float64 range") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_csv(path, header, rows) -> None:
    """One header line, then each row's floats via repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) for v in row] for row in rows)


def _emit(path, payload, table) -> None:
    """Write payload as JSON to a .json path, or table = (header, rows) as
    CSV to a .csv one (_check_flags has checked the extension); nothing
    when path is None."""
    if path is None:
        return
    try:
        if path.endswith(".json"):
            _write_json(path, payload)
        else:
            _write_csv(path, *table)
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

def _cmd_curvature(args, model=None):
    _bind("np", "build_heisenberg_algebra", "check_main_hypotheses", "curvature",
          "levi_civita", "model_from_dict", "tanaka_webster",
          "verify_structure_identities")
    if args.model:
        alg, cs = model_from_dict(model)
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
        curv_tw, cs, alg.metric, samples=args.samples, seed=args.seed
    )
    tw_max = float(np.max(np.abs(curv_tw.operator @ alg.metric)))
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
    _bind("np", "RiccatiParams", "build_blocks", "closed_forms",
          "integrate_inverse_riccati")
    params = RiccatiParams(b=args.b, c=args.c, n=args.n)
    ts = np.asarray(_parse_range(args.t))
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
                "tr_F1_ode": float(np.trace(sol.F1[k])),
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
    _bind("RiccatiParams", "conjugate_time")
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
    _bind("mcp_scan")
    report = mcp_scan(args.n, *map(_parse_range, (args.b, args.c, args.t)), tol=args.tol)
    am = report.argmin
    lines = [f"min ratio {report.min_ratio:.12f} at b={am[0]:g} c={am[1]:g} "
             f"t={am[2]:g}; violations: {len(report.violations)}"]
    return report.ok, {"report": report.to_dict()}, lines, None


def _cmd_sharpness(args):
    _bind("sharpness_scan")
    value = sharpness_scan(args.t, b_max=args.b_max)
    payload = {"infimum_estimate": value, "exponent": 2 * args.n + 3}
    lines = [f"infimum of density/bound over (b, c): {value:.9f}"]
    return value >= 1.0 - args.tol, payload, lines, None


def _cmd_contract(args):
    _bind("np", "HeisenbergModel", "VelocitySet", "monte_carlo_contraction",
          "quadrature_contraction")
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
    _bind("RiccatiParams", "density_profile")
    params = RiccatiParams(b=args.b, c=args.c, n=args.n)
    prof = density_profile(params, _parse_range(args.t))
    min_ratio = min(prof.ratio)
    columns = ("t", "density", "bound", "ratio")
    payload = {**dict(zip(columns, prof)), "min_ratio": min_ratio}
    rows = ([args.b, args.c, *row] for row in zip(*prof))
    lines = [f"density over {len(prof.t_grid)} point(s): min ratio to "
             f"(1-t)^{2 * args.n + 3} = {min_ratio:.12f}"]
    return min_ratio >= 1.0 - args.tol, payload, lines, (["b", "c", *columns], rows)


# The subcommands whose table is not None, the ones with a CSV form.
_CSV_COMMANDS = ("riccati", "density-profile")

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
    common.add_argument("--n", type=int)
    common.add_argument("--output", help="write a report (.json or .csv)")

    def add(name, summary):
        return sub.add_parser(name, help=summary, parents=[common])

    p = add("curvature", "verify structure identities and hypotheses")
    p.add_argument("--heisenberg", action="store_true", help="use the model group")
    p.add_argument("--model", help="load a model from a JSON file")
    p.add_argument("--eps", type=float)
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
    p.add_argument("--b", default="0:10:50", help="value or lo:hi:count")
    p.add_argument("--c", default="-3:3:50", help="value or lo:hi:count")
    p.add_argument("--t", default="0.05:0.95:50", help="value or lo:hi:count")
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = add("sharpness", "exact infimum of density/bound over (b, c), any n")
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
    mistake a leading-minus value (-1, -inf, -nan:0:3) for an option: a
    token after a long flag joins it when it starts with a single '-' and
    is not -h."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok.startswith("--") and "=" not in tok
                and nxt.startswith("-") and not nxt.startswith("--") and nxt != "-h"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _read_model(path) -> dict:
    """The --model file's description, read with the standard library;
    model_from_dict validates it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise McplabError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise McplabError(f"{path} is not JSON: {exc}") from None


def _check_flags(args) -> dict:
    """The usage errors that need no numerical module, raised before any
    is loaded.  --n and curvature's --eps parse to None, so that a given
    one can be told from a default one.  A --model file sets both: with
    --model a given one is a usage error, and both leave args, so the
    config lists neither; otherwise each takes its default here.  Returns
    the subcommand's keyword inputs: the --model description, read here."""
    model = getattr(args, "model", None)
    if model and args.heisenberg:
        raise McplabError("--model and --heisenberg are mutually exclusive")
    for name, default in (("n", 1), ("eps", 1.0)):
        if model and vars(args).pop(name) is not None:
            raise McplabError(f"--{name} does not apply to --model, whose file sets it")
        if getattr(args, name, default) is None:
            setattr(args, name, default)
    if not 1 <= getattr(args, "n", 1) <= _MAX_N:
        raise McplabError(f"--n must lie in 1..{_MAX_N}, got {args.n}")
    if args.output is not None:
        folder = os.path.dirname(args.output) or "."
        if not os.path.isdir(folder):
            raise McplabError(f"cannot write {args.output}: no directory {folder}")
        if not args.output.endswith((".json", ".csv")):
            raise McplabError("output extension must be .csv or .json")
        if args.output.endswith(".csv") and args.command not in _CSV_COMMANDS:
            raise McplabError("this subcommand has no CSV form; use .json")
    if getattr(args, "seed", 0) < 0:
        raise McplabError(f"--seed must be >= 0, got {args.seed}")
    if not 0.0 < getattr(args, "t_max", 1.0) < math.inf:
        raise McplabError(f"--t-max must be positive and finite, got {args.t_max!r}")
    return {"model": _read_model(model)} if model else {}


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
        inputs = _check_flags(args)
        ok, payload, lines, table = _COMMANDS[args.command](args, **inputs)
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
