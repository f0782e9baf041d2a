"""Self-test: every correctness check passes on real output and fails on a
deliberately wrong copy of it.

Run with ``python3 bench/run.py --self-test``.  The real outputs come
from small in-process calls into mcplab (the CLI through ``main(argv)``);
each wrong copy changes one value by a small amount, such as a ratio
nudged below its bound, a ``t_star`` off by 1e-6 or a report with one
byte changed.  The reference formulas are compared with mpmath at 40
digits, and the import-time parser and the self-time arithmetic with
hand-made inputs.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import os
import tempfile

import numpy as np

import checks
import common
import reference

_results = []


def expect(name: str, errors: list, should_fail: bool) -> None:
    ok = bool(errors) == should_fail
    _results.append(ok)
    verdict = "fails as it should" if should_fail else "passes"
    print(f"{'ok' if ok else 'WRONG'}: {name} {verdict if ok else ''}".rstrip()
          + ("" if ok else f" -> {errors or 'no error raised'}"), flush=True)


def passes(name, errors):
    expect(name, errors, should_fail=False)


def fails(name, errors):
    expect(name, errors, should_fail=True)


def test_reference() -> None:
    import mpmath

    mpmath.mp.dps = 40

    def det_mp(b, c, n, s):
        b, c, s = mpmath.mpf(b), mpmath.mpf(c), mpmath.mpf(s)
        x = c * s
        sc = mpmath.sin(x) / x if x else mpmath.mpf(1)
        sx = (mpmath.sin(x) - x * mpmath.cos(x)) / x**3 if x else mpmath.mpf(1) / 3
        return (s**3 * sc * sc + b * b * s**5 * sc * sx) * (s * sc) ** (2 * n - 2)

    rng = np.random.default_rng(0)
    errors = []
    for _ in range(300):
        b, n, s = rng.uniform(-10, 10), int(rng.integers(1, 4)), rng.uniform(0.01, 1.0)
        c = rng.uniform(-6, 6) * rng.choice([1.0, 1e-2, 1e-6])
        exact = det_mp(b, c, n, s)
        if abs(exact) < 1e-6:
            continue
        err = abs(reference.det_a(b, c, n, s) - float(exact)) / abs(float(exact))
        if err > 1e-12:
            errors.append(f"det_a({b}, {c}, {n}, {s}) off by {err:.2e}")
    passes("reference det A against mpmath", errors)

    b, c, t = 1.5, -1.2, 0.3
    exact = -mpmath.diff(lambda u: mpmath.log(det_mp(b, c, 1, u)), t)
    err = abs(reference.trace_f1(b, c, t) - float(exact)) / abs(float(exact))
    passes("reference tr F1 against mpmath", [] if err < 1e-9 else [f"{err:.2e}"])


def test_contraction() -> None:
    from mcplab.heisenberg import HeisenbergModel
    from mcplab.mcp import VelocitySet, monte_carlo_contraction, quadrature_contraction

    n, t, samples = 1, 0.5, 2000
    model = HeisenbergModel(n=n, eps=2.0)
    spec = VelocitySet(horizontal_radius=2.0, vertical_momentum=5.0)
    mc = monte_carlo_contraction(model, np.zeros(3), spec, t=t, samples=samples,
                                 seed=0).to_dict()
    quad = float(quadrature_contraction(model, spec, t=t))
    ref = reference.contraction_ratio(n, 2.0, 2.0, 5.0, t)
    passes("contraction", checks.contraction(n, t, samples, mc, quad, ref))

    bad = dict(mc, ratio=reference.bound(n, t) * (1 - 3 * mc["std_error"]) * (1 - 1e-9))
    fails("contraction: ratio nudged below bound*(1-3 sigma)",
          checks.contraction(n, t, samples, bad, bad["ratio"], ref))
    fails("contraction: Monte Carlo 4 sigma from quadrature",
          checks.contraction(n, t, samples, mc, mc["ratio"] + 4 * mc["std_error"], ref))
    fails("contraction: quadrature off the reference by 1e-8",
          checks.contraction(n, t, samples, mc, quad, ref * (1 + 1e-8)))
    fails("contraction: one sample rejected",
          checks.contraction(n, t, samples, dict(mc, rejected_fraction=1 / samples), quad, ref))


def test_geodesic() -> None:
    import geodesic_oracle

    geodesics = geodesic_oracle.make_inputs(0, smoke=True)["geodesics"]
    tr = common.Tracer(False)
    inside = next(g for g in geodesics if g["band"] == "chart_hop" and g["n"] == 2)
    conj = next(g for g in geodesics if g["band"] == "conjugate")
    out_in = geodesic_oracle.sweep_one(inside, tr)
    out_cj = geodesic_oracle.sweep_one(conj, tr)
    passes("geodesic with |c| < pi", checks.geodesic(inside, out_in))
    passes("geodesic with a conjugate point", checks.geodesic(conj, out_cj))

    def changed(out, **kw):
        new = copy.deepcopy(out)
        new.update(kw)
        return new

    F1 = out_in["F1"].copy()
    F1[4] = F1[4] * (1 + 2e-6)
    fails("geodesic: Riccati block off by 2e-6",
          checks.geodesic(inside, changed(out_in, F1=F1)))
    F3 = out_in["F3"].copy()
    F3[2] = F3[2] * (1 + 2e-6)
    fails("geodesic: parallel Riccati block off by 2e-6",
          checks.geodesic(inside, changed(out_in, F3=F3)))
    singular = out_in["singular"].copy()
    singular[3] = True
    fails("geodesic: inverse Riccati flagged singular",
          checks.geodesic(inside, changed(out_in, singular=singular)))
    fails("geodesic: Jacobi ODE det A off by 1e-5",
          checks.geodesic(inside, changed(out_in, ode_det=out_in["ode_det"] * (1 + 1e-5))))
    fails("geodesic: det_distortion off by 1e-11",
          checks.geodesic(inside, changed(out_in, closed_det=out_in["closed_det"] * (1 + 1e-11))))
    fails("geodesic: speed drift 2e-8",
          checks.geodesic(inside, changed(out_in, drift={"speed": 2e-8, "vertical": 0.0})))
    b, c = out_in["frame_bc"]
    fails("geodesic: adapted frame b off by 1e-9",
          checks.geodesic(inside, changed(out_in, frame_bc=(b * (1 + 1e-9), c))))
    fails("geodesic: spurious conjugate time for |c| < pi",
          checks.geodesic(inside, changed(out_in, t_star=0.9)))
    fails("geodesic: conjugate time missed for |c| > pi",
          checks.geodesic(conj, changed(out_cj, t_star=None)))
    fails("geodesic: t_star off by 1e-6",
          checks.geodesic(conj, changed(out_cj, t_star=out_cj["t_star"] + 1e-6)))


def test_cli_reports() -> None:
    import cli_session
    from mcplab.cli import main

    inputs = cli_session.make_inputs(0)
    work = os.path.join(common.ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        reports = {}
        for kind, argv, flags, report in inputs["invocations"]:
            if kind == cli_session.USAGE_ERROR:
                continue
            argv = [a.replace("{dir}", tmp) for a in argv]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                rc = main(argv)
            passes(f"cli {kind} exit code", [] if rc == 0 else [f"exit {rc}"])
            if rc != 0:
                continue
            with open(os.path.join(tmp, report), "rb") as fh:
                reports[kind] = (flags, fh.read())

    for kind, (flags, data) in reports.items():
        passes(f"cli {kind} report", checks.report(kind, flags, data))
        passes(f"cli {kind} report repeated", checks.identical(kind, data, bytes(data)))
        flipped = bytearray(data)
        flipped[len(flipped) // 2] ^= 1
        fails(f"cli {kind}: one byte changed", checks.identical(kind, bytes(flipped), data))

    def edited(kind, edit):
        flags, data = reports[kind]
        payload = json.loads(data)
        edit(payload)
        return checks.report(kind, flags, json.dumps(payload).encode())

    def set_path(path, value):
        def edit(p):
            for key in path[:-1]:
                p = p[key]
            p[path[-1]] = value
        return edit

    fails("cli curvature: identity catalog not passed",
          edited("curvature", set_path(["identities", "passed"], False)))
    fails("cli curvature: identity residual 1e-9",
          edited("curvature", lambda p: p["identities"]["identities"][0].update(residual=1e-9)))
    fails("cli curvature: hypotheses fail",
          edited("curvature", set_path(["hypotheses", "holds"], False)))
    fails("cli riccati: max relative error 2e-6",
          edited("riccati", set_path(["max_rel_error"], 2e-6)))
    fails("cli riccati: ODE trace off by 1e-5",
          edited("riccati", lambda p: p["points"][3].update(
              tr_F1_ode=p["points"][3]["tr_F1_ode"] * (1 + 1e-5))))
    fails("cli conjugate: t_star off by 1e-6",
          edited("conjugate", lambda p: p.update(t_star=p["t_star"] + 1e-6)))
    fails("cli mcp-scan: min ratio below 1 - 1e-9",
          edited("mcp-scan", lambda p: p["report"].update(min_ratio=1 - 2e-9)))
    fails("cli mcp-scan: min ratio off its argmin value by 1e-8",
          edited("mcp-scan", lambda p: p["report"].update(
              min_ratio=p["report"]["min_ratio"] * (1 + 1e-8))))
    fails("cli sharpness: infimum 1.03",
          edited("sharpness", set_path(["infimum_estimate"], 1.03)))
    fails("cli sharpness: infimum 1 - 2e-9",
          edited("sharpness", set_path(["infimum_estimate"], 1 - 2e-9)))
    fails("cli contract: quadrature off the reference by 1e-8",
          edited("contract", lambda p: p.update(quadrature=p["quadrature"] * (1 + 1e-8))))

    flags, data = reports["density-profile"]
    lines = data.decode().splitlines(keepends=True)
    row = lines[1].split(",")
    row[3] = repr(1.000001)
    fails("cli density-profile: D(0) = 1.000001",
          checks.report("density-profile", flags, "".join([lines[0], ",".join(row) + "\n"]
                                                          + lines[2:]).encode()))
    row = lines[5].rstrip("\n").split(",")
    row[3] = repr(float(row[3]) * (1 + 1e-9))
    fails("cli density-profile: density off by 1e-9",
          checks.report("density-profile", flags,
                         "".join(lines[:5] + [",".join(row) + "\n"] + lines[6:]).encode()))

    passes("usage error: exit 2 with one line",
           [] if checks.usage_error(2, "error: bad flag\n") else ["rejected"])
    fails("usage error: exit 1 with a traceback",
          [] if checks.usage_error(1, "Traceback (most recent call last):\nValueError: x\n")
          else ["rejected"])
    fails("usage error: exit 2 with two lines",
          [] if checks.usage_error(2, "error: a\nerror: b\n") else ["rejected"])


def test_tracing_arithmetic() -> None:
    sample = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |     numpy.core\n"
        "import time:       200 |        300 |   numpy\n"
        "import time:        50 |         50 |     numpy.linalg\n"
        "import time:       400 |        450 |   scipy.integrate\n"
        "import time:        10 |        760 | mcplab.cli\n"
    )
    got = common.parse_importtime(sample, ("mcplab", "numpy", "scipy"))
    want = {"mcplab": 760e-6, "numpy": 350e-6, "scipy": 450e-6}
    passes("import-time parser",
           [] if all(math.isclose(got[k], v) for k, v in want.items()) else [got])

    trace = {"spans": [{"id": 0, "name": "cli.main.x", "parent": None, "start": 0.0, "end": 5.0},
                       {"id": 1, "name": "mcp.a", "parent": 0, "start": 1.0, "end": 2.0},
                       {"id": 2, "name": "mcp.a", "parent": 0, "start": 3.0, "end": 4.5}],
             "counts": {"mcp.samples_used": 7}}
    got = common.layer_totals([trace, trace])
    want = {"cli.main.x_s": 10.0, "cli.main.x.self_s": 5.0, "mcp.a_s": 5.0,
            "mcp.samples_used": 14}
    passes("span totals and self time",
           [] if got.keys() == want.keys()
           and all(math.isclose(got[k], v) for k, v in want.items()) else [got])


def main() -> int:
    test_reference()
    test_tracing_arithmetic()
    test_contraction()
    test_geodesic()
    test_cli_reports()
    bad = _results.count(False)
    print(f"self-test: {len(_results) - bad} of {len(_results)} as expected")
    return 0 if bad == 0 else 1
