"""End-to-end tests for the command-line interface.

Each test drives main() directly with an argv list and checks the exit
code contract: 0 all checks passed, 1 verification failure, 2 usage
error.  File outputs are checked for byte-level reproducibility.
"""

import argparse
import ast
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcplab.cli as cli
from mcplab.cli import build_parser, main
from mcplab.frame_algebra import build_heisenberg_algebra, model_to_dict
from mcplab.mcp import _density_ratio, mcp_scan


def test_curvature_model_group_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        ["curvature", "--heisenberg", "--n", "1", "--eps", "2",
         "--tol", "1e-10", "--output", str(out)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout
    payload = json.loads(out.read_text())
    assert payload["command"] == "curvature"
    assert payload["config"]["eps"] == 2.0
    assert payload["tw_curvature_max_abs"] == 0.0
    assert payload["identities"]["passed"] is True
    assert payload["hypotheses"]["holds"] is True


def test_curvature_large_n_is_fast(capsys):
    # the identity catalog contracts each (2n+1)^4-entry curvature tensor
    # with whole stacks of vectors, and the sectional values of a direction
    # come from one matrix per direction
    start = time.perf_counter()
    assert main(["curvature", "--heisenberg", "--n", "8", "--samples", "10"]) == 0
    assert time.perf_counter() - start < 8.0
    assert "PASS" in capsys.readouterr().out


def test_curvature_at_the_n_cap_is_fast(capsys):
    # --n 20 is the CLI's cap; one vector pair at a time this took minutes
    start = time.perf_counter()
    assert main(["curvature", "--heisenberg", "--n", "20", "--samples", "10"]) == 0
    assert time.perf_counter() - start < 30.0
    assert "PASS" in capsys.readouterr().out


def test_curvature_rejects_model_plus_heisenberg(tmp_path, capsys):
    model = tmp_path / "m.json"
    alg, cs = build_heisenberg_algebra(1, 1.0)
    model.write_text(json.dumps(model_to_dict(alg, cs)))
    rc = main(["curvature", "--heisenberg", "--model", str(model)])
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_curvature_loads_model_file(tmp_path):
    model = tmp_path / "m.json"
    alg, cs = build_heisenberg_algebra(2, 0.5)
    model.write_text(json.dumps(model_to_dict(alg, cs)))
    assert main(["curvature", "--model", str(model)]) == 0


def test_curvature_model_refuses_n_and_eps(tmp_path, capsys):
    # a model file sets its own dimension and eps: --eps 7 on a dim-5,
    # eps-3 model used to pass, with eps 7.0 and n 1 in the report's config
    model = tmp_path / "m.json"
    model.write_text(json.dumps(model_to_dict(*build_heisenberg_algebra(2, 3.0))))
    for flags in (["--eps", "7"], ["--n", "2"], ["--n", "1", "--eps", "1"]):
        _one_line_usage_error(main(["curvature", "--model", str(model), *flags]), capsys)
    out = tmp_path / "report.json"
    assert main(["curvature", "--model", str(model), "--output", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["model"] == str(model)
    assert "n" not in config and "eps" not in config


def test_curvature_rejects_broken_model_file(tmp_path, capsys):
    model = tmp_path / "m.json"
    alg, cs = build_heisenberg_algebra(1, 1.0)
    data = model_to_dict(alg, cs)
    data["metric"] = (-np.eye(3)).tolist()
    model.write_text(json.dumps(data))
    rc = main(["curvature", "--model", str(model)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("bracket", [[1, 2, 0, 2.0], [0, 1, 2, "x"]]),   # a value that is no number
    ("bracket", 5),                                    # no list of entries
    ("bracket", [[1.9, 2, 0, 2.0]]),                   # an index that is no integer
    ("bracket", [[1, 2, 0, 2.0], [0, 1, 2, float("nan")]]),  # NaN at a zero slot
    ("eta", [1e308, 0.0, 0.0]),                        # overflows in validation
])
def test_curvature_rejects_malformed_model_entry(field, value, tmp_path, capsys):
    # each used to be a traceback (exit 1), a silently accepted model, or
    # RuntimeWarnings before the error line
    model = tmp_path / "m.json"
    data = model_to_dict(*build_heisenberg_algebra(1, 2.0))
    model.write_text(json.dumps({**data, field: value}))
    _one_line_usage_error(main(["curvature", "--model", str(model)]), capsys)


def test_curvature_past_float_range_is_usage_error(tmp_path, capsys):
    # a bracket entry of 1e308 passes the model's checks but its curvature
    # overflows to NaN, which once read "hypotheses hold: True" (min of
    # inf and NaN) after RuntimeWarnings
    model = tmp_path / "m.json"
    data = model_to_dict(*build_heisenberg_algebra(1, 1.0))
    data["bracket"].append([0, 1, 2, 1e308])
    model.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _one_line_usage_error(main(["curvature", "--model", str(model)]), capsys)


def test_curvature_impossible_tolerance_exits_1(capsys):
    # Perturbed eps makes nothing fail; an unreachable tolerance does, and
    # the failure must come back as exit 1 rather than an exception.
    rc = main(["curvature", "--heisenberg", "--n", "2", "--tol", "1e-30"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_riccati_closed_vs_ode(capsys):
    rc = main(["riccati", "--b", "1.5", "--c", "-2.0", "--n", "2",
               "--t", "0.1:0.9:5"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_riccati_single_point_and_tight_tolerance(capsys):
    assert main(["riccati", "--b", "1", "--c", "1", "--t", "0.5"]) == 0
    capsys.readouterr()
    # the propagator meets 1e-15 here (about 2e-16), so only exact
    # agreement is out of reach
    rc = main(["riccati", "--b", "1", "--c", "1", "--t", "0.5",
               "--tol", "0"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_riccati_rejects_t_outside_unit_interval(capsys):
    assert main(["riccati", "--b", "1", "--c", "1", "--t", "1.5"]) == 2
    assert main(["riccati", "--b", "1", "--c", "1", "--t", "0:0.9:5"]) == 2


def test_riccati_csv_output(tmp_path):
    out = tmp_path / "r.csv"
    argv = ["riccati", "--b", "1", "--c", "1", "--t", "0.2:0.8:4",
            "--output", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "t,tr_F1_closed,tr_F1_ode,f3_closed,rel_error"
    assert len(lines) == 5
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_conjugate_prints_known_value(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc = main(["conjugate", "--b", "0", "--c", "3.5", "--output", str(out)])
    assert rc == 0
    assert "0.8975979" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["c"] == 3.5
    assert payload["vertical_momentum"] == 7.0
    assert abs(payload["t_star"] - np.pi / 3.5) < 1e-6


def test_conjugate_reports_absence(capsys):
    rc = main(["conjugate", "--b", "5", "--c", "1.0"])
    assert rc == 0
    assert "no conjugate time" in capsys.readouterr().out


def test_mcp_scan_default_grid_passes(capsys):
    rc = main(["mcp-scan", "--n", "1", "--b", "0:10:50", "--c", "-3:3:50",
               "--t", "0.05:0.95:50"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "violations: 0" in stdout
    assert "PASS" in stdout


def test_mcp_scan_embeds_config(tmp_path):
    out = tmp_path / "scan.json"
    rc = main(["mcp-scan", "--n", "2", "--b", "0:5:8", "--c", "-2:2:8",
               "--t", "0.1:0.9:8", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["b"] == "0:5:8"
    assert payload["report"]["exponent"] == 7
    assert payload["report"]["violations"] == []


def test_mcp_scan_usage_errors(capsys):
    # c outside the regime, t at 1, a decreasing range, malformed ranges
    for b, c, t in (("0:1:5", "-4:4:5", "0.1:0.9:5"), ("0:1:5", "-1:1:5", "1"),
                    ("1:0:5", "-1:1:5", "0.1:0.9:5"), ("zebra", "-1:1:5", "0.5"),
                    ("0:1", "-1:1:5", "0.1:0.9:5")):
        rc = main(["mcp-scan", "--b", b, "--c", c, "--t", t])
        _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("b, c, t", [
    ("0:10:20", "-3:3:30", "0.5"),
    ("2.5", "-3:3:7", "0.05:0.95:4"),
    ("-7.5:-7.5:3", "-2.9:-0.1:2", "0:5e-324:3"),
])
def test_mcp_scan_takes_unequal_counts_and_single_values(b, c, t, tmp_path, capsys):
    # the CLI scans the axes it parsed, whatever their counts, and so
    # does mcp_scan; both find the ratio's minimum over the same arrays
    out = tmp_path / "scan.json"
    assert main(["mcp-scan", "--b", b, "--c", c, "--t", t, "--output", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    axes = [np.array(cli._parse_range(v)) for v in (b, c, t)]
    for text, axis in zip((b, c, t), axes):
        assert axis.tolist() == _linspace(text)
    ratio = _density_ratio(axes[0][:, None, None], axes[1][None, :, None], 1,
                           axes[2][None, None, :])[1]
    i = np.unravel_index(np.argmin(ratio), ratio.shape)
    argmin = {k: float(a[j]) for k, a, j in zip("bct", axes, i)}
    shape = [len(a) for a in axes]
    scan = mcp_scan(1, *axes)
    for got in (report, scan.to_dict()):
        assert got["grid_shape"] == shape
        assert got["min_ratio"] == float(ratio[i])
        assert got["argmin"] == argmin
        assert got["ok"] is True


def _linspace(text):
    """The points of a range flag as np.linspace gives them."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(text)]
    return np.linspace(float(parts[0]), float(parts[1]), int(parts[2])).tolist()


@pytest.mark.parametrize("text", [
    "0:1:2", "0.05:0.95:50", "-3:3:50", "3:-3:7", "-1e-300:-2e-300:4", "0.1:0.9:9",
    "2.5:2.5:5", "-0.0:-0.0:3", "0:5e-324:3", "5e-324:0:4", "-5e-324:5e-324:6",
    "1e307:-1e307:3", "0:0.9:1000000", "0.3:0.7:999983", "7",
])
def test_parse_range_gives_the_bits_of_linspace(text):
    # the points are computed on Python floats, numpy's arithmetic step
    # for step: a width whose step rounds to 0 takes its other branch
    got = cli._parse_range(text)
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(_linspace(text)).tobytes()


def test_non_finite_ranges_are_one_line_usage_errors(capsys):
    # an infinite bound or a width past float64 range never reaches
    # np.linspace, whose warning would come before the error line; -inf,
    # -nan and -inf:0:3 join their flag as values, as -1 does, and reach
    # the same checks instead of argparse's usage lines
    for argv in (
        ["density-profile", "--b", "-inf", "--c", "1", "--t", "0:0.5:3"],
        ["density-profile", "--b", "-nan", "--c", "1", "--t", "0:0.5:3"],
        ["mcp-scan", "--b", "-inf:0:3", "--c", "-1:1:3", "--t", "0.5"],
        ["mcp-scan", "--b", "0:inf:3", "--c", "-1:1:3", "--t", "0.1:0.5:3"],
        ["mcp-scan", "--b", "nan:1:3", "--c", "-1:1:3", "--t", "0.1:0.5:3"],
        ["density-profile", "--b", "1", "--c", "1", "--t", "0:inf:3"],
        ["density-profile", "--b", "1", "--c", "1", "--t", "-1e308:1e308:3"],
        ["riccati", "--b", "1", "--c", "1", "--t", "0:-inf:3"],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        _one_line_usage_error(rc, capsys)


def test_sharpness_near_one(capsys):
    rc = main(["sharpness", "--n", "1", "--t", "0.5"])
    assert rc == 0
    stdout = capsys.readouterr().out
    value = float(stdout.split(":")[1].split()[0])
    assert 1.0 - 1e-9 <= value <= 1.02
    # the infimum is the same closed form at every n; only the exponent
    # in the report follows --n
    assert stdout == "infimum of density/bound over (b, c): 1.000000090\nPASS\n"
    assert main(["sharpness", "--n", "20", "--t", "0.5"]) == 0
    assert capsys.readouterr().out == stdout


def test_report_value_past_float_range_is_usage_error(tmp_path, capsys):
    # JSON has no Infinity: a report holding one is refused before its
    # file is opened, with one error line and no file left behind
    for argv in (
        ["conjugate", "--b", "0", "--c", "1e308"],
        ["mcp-scan", "--n", "20", "--b", "0", "--c", "3.14159265", "--t", "0.5"],
    ):
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + ["--output", str(out)])
        _one_line_usage_error(rc, capsys)
        assert not out.exists()
        # without --output the same run prints its verdict
        assert main(argv) in (0, 1)
        assert capsys.readouterr().err == ""


def test_contract_passes_and_reproduces(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["contract", "--n", "1", "--eps", "2", "--t", "0.3",
            "--samples", "2000", "--seed", "3"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["consistent_with_quadrature"] is True
    assert payload["monte_carlo"]["passes"] is True


def test_contract_seed_changes_report(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["contract", "--t", "0.3", "--samples", "2000"]
    assert main(base + ["--seed", "3", "--output", str(out1)]) == 0
    assert main(base + ["--seed", "4", "--output", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["monte_carlo"]["ratio"] != b["monte_carlo"]["ratio"]


def test_contract_rejects_bad_velocity_set(capsys):
    rc = main(["contract", "--t", "0.3", "--samples", "2000",
               "--momentum", "-1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_density_profile_csv_reproducible(tmp_path, capsys):
    out = tmp_path / "p.csv"
    argv = ["density-profile", "--b", "2", "--c", "1", "--t", "0:0.9:10",
            "--output", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert first.decode().splitlines()[0] == "b,c,t,density,bound,ratio"
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert "PASS" in capsys.readouterr().out


def test_density_profile_negative_c_value(capsys):
    # a bare negative number must parse as a value, not a flag
    rc = main(["density-profile", "--b", "0", "--c", "-1.2", "--t", "0.5"])
    assert rc == 0


def test_output_extension_rejected(tmp_path, capsys):
    rc = main(["conjugate", "--b", "0", "--c", "3.5",
               "--output", str(tmp_path / "x.txt")])
    assert rc == 2
    assert "extension" in capsys.readouterr().err


def test_mcp_scan_csv_unsupported(tmp_path, capsys):
    rc = main(["mcp-scan", "--b", "0:1:5", "--c", "-1:1:5",
               "--t", "0.1:0.9:5", "--output", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "no CSV form" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main(["conjugate", "--b", "0", "--c", "3.5", "--frobnicate"]) == 2
    assert main([]) == 2
    assert main(["warp-drive"]) == 2


def test_help_and_version_exit_0(capsys):
    assert main(["--help"]) == 0
    # -h after a long flag stays the help flag
    assert main(["curvature", "--heisenberg", "-h"]) == 0
    assert main(["--version"]) == 0
    assert "mcplab" in capsys.readouterr().out


def test_threads_flag_and_env(capsys, monkeypatch):
    # the thread cap was removed: BLAS takes its thread count from the
    # standard variables, which mcplab neither sets nor reads
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(["conjugate", "--b", "0", "--c", "3.5", "--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err
    monkeypatch.setenv("MCPLAB_THREADS", "abc")
    assert main(["conjugate", "--b", "0", "--c", "3.5"]) == 0
    assert "OMP_NUM_THREADS" not in os.environ


def _one_line_usage_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_conjugate_rejects_nan_t_max(capsys):
    for value in ("nan", "inf", "0", "-1"):
        rc = main(["conjugate", "--b", "0", "--c", "3.5", "--t-max", value])
        _one_line_usage_error(rc, capsys)


def test_output_into_missing_directory(tmp_path, capsys):
    for argv in (
        ["conjugate", "--b", "0", "--c", "3.5"],
        ["density-profile", "--b", "2", "--c", "1", "--t", "0:0.9:5"],
    ):
        ext = ".csv" if argv[0] == "density-profile" else ".json"
        out = tmp_path / "missing" / f"report{ext}"
        rc = main(argv + ["--output", str(out)])
        _one_line_usage_error(rc, capsys)
        assert not out.parent.exists()


def test_b_squared_past_float_range_passes(capsys):
    # from |b| = 2^512 b^2 overflows; the closed-form ratios rescale b by a
    # power of two there, so these pass with no warning (raised here as an
    # exception) where they used to exit 2 on a NaN ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (
            ["sharpness", "--t", "0.5", "--b-max", "1e160"],
            ["sharpness", "--t", "1e-300", "--b-max", "1e300"],
            ["mcp-scan", "--n", "1", "--b", "0:1e160:5", "--c", "-1:1:5", "--t", "0.1:0.9:5"],
            ["mcp-scan", "--b", "0:1e300:3", "--c", "-1:1:3", "--t", "0.1:0.5:3"],
            ["density-profile", "--b", "1e160", "--c", "1", "--t", "0:0.9:5"],
            ["density-profile", "--b", "1e308", "--c", "1", "--t", "0.5"],
        ):
            assert main(argv) == 0, argv
            out, err = capsys.readouterr()
            assert out.rstrip().endswith("PASS") and err == "", argv


def test_riccati_huge_b_is_usage_error(capsys):
    # the Jacobi flow refuses a step count of order 1e9 before stepping
    start = time.perf_counter()
    rc = main(["riccati", "--b", "1e9", "--c", "1"])
    assert time.perf_counter() - start < 1.0
    _one_line_usage_error(rc, capsys)


def test_tol_must_be_finite_and_nonnegative(capsys):
    # NaN would fail every comparison, so it used to read as FAIL (exit 1)
    for argv in (
        ["curvature", "--heisenberg"],
        ["riccati", "--b", "1", "--c", "1", "--t", "0.5"],
        ["mcp-scan", "--b", "0:1:3", "--c", "-1:1:3", "--t", "0.1:0.5:3"],
        ["sharpness", "--t", "0.5"],
        ["density-profile", "--b", "2", "--c", "1", "--t", "0.5"],
    ):
        for value in ("nan", "inf", "-inf", "-1e-30", "tight"):
            rc = main(argv + ["--tol", value])
            err = capsys.readouterr().err
            assert rc == 2
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1 and "--tol" in errors[0]
            assert "Traceback" not in err


def test_overflow_is_usage_error(capsys, tmp_path):
    # finite flags whose ratio leaves float64 range: no NaN verdict and no
    # RuntimeWarning (raised here as an exception) on stderr.  b^2 past
    # float64 range no longer leaves it (test_b_squared_past_float_range_passes);
    # the parallel factor (s sinc(cs) / sinc(c))^(2n-2) at n = 20 still can
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (
            ["density-profile", "--b", "1", "--c", "3.141592653", "--n", "20", "--t", "0.5"],
            ["riccati", "--b", "1e154", "--c", "1", "--t", "0.5"],
            ["curvature", "--heisenberg", "--eps", "1e154", "--samples", "10"],
        ):
            _one_line_usage_error(main(argv), capsys)
        # at eps = 1e154 b^2 stays finite, and the exponential map's
        # Jacobian never forms it; from 1e155 b^2 = (eps |w_H| / 2)^2
        # overflows, and the quadrature rescales b by a power of two
        for eps in ("1e154", "1e155", "1e160", "1e300"):
            out = tmp_path / f"contract-{eps}.json"
            argv = ["contract", "--t", "0.5", "--eps", eps, "--samples", "1000",
                    "--output", str(out)]
            assert main(argv) == 0
            payload = json.loads(out.read_text())
            mc = payload["monte_carlo"]
            assert np.isfinite(payload["quadrature"])
            assert abs(payload["quadrature"] - mc["ratio"]) <= 3.0 * mc["std_error"]
        assert capsys.readouterr().err == ""


def test_contract_at_a_subnormal_radius(capsys):
    # the quadrature's radial weights leave out radius^(2n), and its
    # momentum weights the momentum's power of two, both of which cancel in
    # its ratio; with them the weights underflow to 0.  At eps 1e-300 and
    # 1e-160 the Monte Carlo weights near 1e300 are rescaled by a power of
    # two before var() squares them
    for flags in (["--radius", "1e-320"], ["--momentum", "1e-320"],
                  ["--eps", "1e-300"], ["--eps", "1e-160"]):
        assert main(["contract", "--t", "0.5", *flags, "--samples", "1000"]) == 0
        assert capsys.readouterr().err == ""


def test_mcp_scan_grid_cap_is_usage_error(capsys):
    # 10^9 points are refused before any is allocated
    start = time.perf_counter()
    rc = main(["mcp-scan", "--b", "0:1:1000", "--c", "-1:1:1000",
               "--t", "0.1:0.5:1000"])
    assert time.perf_counter() - start < 1.0
    _one_line_usage_error(rc, capsys)


def test_contract_sample_cap_is_usage_error(capsys):
    # 10^12 samples are refused before any is drawn
    start = time.perf_counter()
    rc = main(["contract", "--t", "0.5", "--samples", "1000000000000"])
    assert time.perf_counter() - start < 1.0
    _one_line_usage_error(rc, capsys)


def test_curvature_model_dim_cap_is_usage_error(tmp_path, capsys):
    # a model file's dim is held to the --n cap (dim 2 * 20 + 1 = 41)
    # before its bracket array is allocated: a huge dim, and the valid
    # model group at n = 21
    model = tmp_path / "m.json"
    for n, dim in ((1, 1_000_001), (21, 43)):
        data = model_to_dict(*build_heisenberg_algebra(n, 1.0))
        model.write_text(json.dumps({**data, "dim": dim}))
        start = time.perf_counter()
        rc = main(["curvature", "--model", str(model)])
        assert time.perf_counter() - start < 1.0, dim
        _one_line_usage_error(rc, capsys)


def test_curvature_model_dim_that_is_no_integer_is_usage_error(tmp_path, capsys):
    # "dim": 3.9 and "dim": "3" were read as 3, and the model group
    # passed (exit 0); an integer-valued float is still a dim
    model = tmp_path / "m.json"
    data = model_to_dict(*build_heisenberg_algebra(1, 1.0))
    for dim in (3.9, 3.5, "3", True, None, float("nan")):
        model.write_text(json.dumps({**data, "dim": dim}))
        _one_line_usage_error(main(["curvature", "--model", str(model)]), capsys)
    model.write_text(json.dumps({**data, "dim": 3.0}))
    assert main(["curvature", "--model", str(model)]) == 0


def _heisenberg_model_with(field, bad):
    """The n = 1, eps = 1 model with the numbers of field replaced by
    bad(x): every number for str, each 0 and 1 for bool, so that the model
    means the same if the replacements are read as numbers (dim, 3, takes
    "3" or true)."""
    data = model_to_dict(*build_heisenberg_algebra(1, 1.0))
    if field == "dim":
        return {**data, "dim": bad(3) if bad is str else True}

    def swap(x):
        if isinstance(x, list):
            return [swap(v) for v in x]
        return bad(x) if bad is str or x in (0, 1) else x

    return {**data, field: swap(data[field])}


@pytest.mark.parametrize("bad", [str, bool])
@pytest.mark.parametrize("field", ["dim", "bracket", "metric", "J", "eta", "reeb", "eps"])
def test_curvature_model_numbers_that_are_strings_or_bools_are_usage_errors(
    field, bad, tmp_path, capsys
):
    # "1" and true were read as numbers in every field but dim, and the
    # model group passed (exit 0)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(_heisenberg_model_with(field, bad)))
    _one_line_usage_error(main(["curvature", "--model", str(model)]), capsys)


def test_curvature_model_numbers_past_float_range_or_nested_are_usage_errors(tmp_path, capsys):
    # an integer past float64 range in metric or eps was a traceback
    model = tmp_path / "m.json"
    data = model_to_dict(*build_heisenberg_algebra(1, 1.0))
    metric = [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]
    for changes in ({"metric": metric}, {"eps": 10**400}, {"eta": [None, 0, 0]},
                    {"bracket": [[1, 2, 0, [1.0]]]}, {"bracket": [[1, [2], 0, 1.0]]}):
        model.write_text(json.dumps({**data, **changes}))
        _one_line_usage_error(main(["curvature", "--model", str(model)]), capsys)
    model.write_text(json.dumps({**data, "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    assert main(["curvature", "--model", str(model)]) == 0


def test_cli_sizes_are_usage_errors(capsys):
    # range counts, --n, the size of a riccati run and the hypothesis
    # sample count are refused before anything of that size is allocated
    # or run
    huge = "0:0.9:1000000000"
    for argv in (
        ["riccati", "--b", "1", "--c", "1", "--t", huge],
        ["density-profile", "--b", "1", "--c", "1", "--t", huge],
        ["mcp-scan", "--t", huge],
        ["riccati", "--b", "1", "--c", "1", "--n", "1000000000", "--t", "0.5"],
        ["curvature", "--heisenberg", "--n", "21"],
        ["riccati", "--b", "1", "--c", "1", "--n", "20", "--t", "0.01:0.9:2000"],
        # the hypothesis sampler loops in Python, about 10 us per sample
        ["curvature", "--heisenberg", "--samples", "100001"],
        # squared horizontal speeds overflow: a NaN ratio, not a verdict
        ["contract", "--t", "0.5", "--samples", "5000", "--radius", "1e200"],
    ):
        start = time.perf_counter()
        rc = main(argv)
        assert time.perf_counter() - start < 1.0, argv
        _one_line_usage_error(rc, capsys)


_IMPORT_CONTRACT = """
import sys
from mcplab.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
for argv, code in (
    (["curvature", "--heisenberg"], 0),
    (["conjugate", "--b", "0", "--c", "3.5"], 0),
    (["mcp-scan", "--b", "0:10:5", "--c", "-3:3:5", "--t", "0.05:0.95:5"], 0),
    (["sharpness", "--t", "0.5"], 0),
    (["density-profile", "--b", "2", "--c", "1"], 0),
    (["conjugate", "--b", "0", "--c", "3.5", "--t-max", "nan"], 2),
):
    assert main(argv) == code, argv
assert not scipy_modules(), scipy_modules()
assert main(["riccati", "--b", "1", "--c", "1", "--t", "0.5"]) == 0
assert main(["contract", "--t", "0.3", "--samples", "1000"]) == 0
assert not scipy_modules(), scipy_modules()
from mcplab.heisenberg import GeodesicState, HeisenbergModel, adapted_frame, geodesic_flow
model = HeisenbergModel(1, 1.0)
traj = geodesic_flow(model, GeodesicState([0.0] * 3, [1.0, 0.5, 0.0]), 1.0)
adapted_frame(model, traj)
assert not scipy_modules(), scipy_modules()
"""


def test_no_mcplab_path_loads_scipy():
    # scipy takes most of a second to import; every subcommand, usage
    # error, the geodesic flow and the adapted frame run without it
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CONTRACT], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# Run main(argv) in a fresh interpreter and print its exit code and the
# numpy, inspect and mcplab modules it loaded, as the last line of stdout.
# inspect takes about 5 ms to import; dataclasses and numpy load it.
_LOADED = """
import json, sys
from mcplab.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m in ("numpy", "inspect") or m.startswith("mcplab."))
print(json.dumps([code, loaded]))
"""


def _fresh_main(argv):
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, proc.stderr, set(loaded)


def test_version_help_and_usage_errors_load_no_numpy(tmp_path):
    # the flags are checked before any numerical module is loaded; the
    # first three usage errors are the benchmark's cli-session ones, a
    # negative seed used to reach numpy's generator, whose ValueError was
    # a traceback, and an --output extension used to be refused only
    # after the run
    for argv, code in (
        (["--version"], 0),
        (["--help"], 0),
        (["conjugate", "--help"], 0),
        (["conjugate", "--b", "1", "--c", "4", "--t-max", "nan"], 2),
        (["conjugate", "--b", "1", "--c", "4",
          "--output", str(tmp_path / "missing" / "c.json")], 2),
        (["curvature", "--model", str(tmp_path / "missing-model.json")], 2),
        (["contract", "--t", "0.5", "--seed", "-1"], 2),
        (["curvature", "--heisenberg", "--seed", "-1"], 2),
        (["curvature", "--heisenberg", "--n", "21"], 2),
        (["curvature", "--model", str(tmp_path / "m.json"), "--eps", "7"], 2),
        (["conjugate", "--b", "0", "--c", "1", "--n", "0"], 2),
        (["contract", "--t", "0.5", "--output", str(tmp_path / "r.txt")], 2),
        (["mcp-scan", "--b", "0:1:5", "--c", "-1:1:5", "--t", "0.1:0.9:5",
          "--output", str(tmp_path / "s.csv")], 2),
    ):
        rc, err, loaded = _fresh_main(argv)
        assert rc == code, argv
        assert loaded == {"mcplab.cli", "mcplab.errors"}, (argv, loaded)
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error:"), err


# The modules each subcommand loads, and no others.  scalars loads
# neither numpy nor inspect, so a subcommand that loads it alone runs
# without both.
_SUBCOMMAND_MODULES = {
    "curvature": {"frame_algebra"},
    "riccati": {"riccati", "scalars"},
    "conjugate": {"scalars"},
    "mcp-scan": {"scalars"},
    "sharpness": {"scalars"},
    "density-profile": {"scalars"},
    "contract": {"mcp", "riccati", "scalars", "heisenberg"},
}


@pytest.mark.parametrize("name", sorted(_SUBCOMMAND_MODULES))
def test_subcommand_loads_only_its_modules(name):
    rc, _, loaded = _fresh_main(_PASSING[name])
    assert rc == 0
    modules = _SUBCOMMAND_MODULES[name]
    expected = {"mcplab.cli", "mcplab.errors"} | {f"mcplab.{m}" for m in modules}
    assert loaded == expected | ({"numpy", "inspect"} if modules != {"scalars"} else set())


# The traced-names contract of test_traced_names_are_called_through_cli in
# a fresh interpreter, where no name is bound before it is read.
_TRACED_FRESH = """
import json, sys
import mcplab.cli as cli
names, lines = json.loads(sys.argv[1])
calls = dict.fromkeys(names, 0)

def counted(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for name in names:
    setattr(cli, name, counted(name, getattr(cli, name)))
codes = [cli.main(argv) for argv in lines]
print(json.dumps([codes, calls]))
"""


def test_traced_names_are_called_through_cli_in_a_fresh_interpreter():
    names = _traced_names()
    arg = json.dumps([names, list(_PASSING.values())])
    proc = subprocess.run([sys.executable, "-c", _TRACED_FRESH, arg],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, calls = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(_PASSING)
    assert set(calls) == set(names) and all(calls.values()), calls


# A valid command line of each subcommand at a small size, whose flags the
# fuzzer then overrides (argparse keeps the last value) with values of the
# flag's kind: "x" a number, "n" an integer, "r" a number or lo:hi:count,
# "m" and "k" a Monte Carlo and a hypothesis sample count, "s" a seed.
# Range counts stay at most 4 (mcp-scan evaluates count^3 points), --n at
# most 5 (riccati builds (2n-2)^2 blocks) and the sample counts at most
# 3000 and 20.
_FUZZ_COMMANDS = {
    "conjugate": (["--b", "1", "--c", "3.5"],
                  {"--b": "x", "--c": "x", "--n": "n", "--t-max": "x"}),
    "riccati": (["--b", "1", "--c", "1", "--t", "0.5"],
                {"--b": "x", "--c": "x", "--n": "n", "--t": "r", "--tol": "x"}),
    "mcp-scan": (["--b", "0:10:4", "--c", "-3:3:4", "--t", "0.05:0.95:4"],
                 {"--b": "r", "--c": "r", "--t": "r", "--n": "n", "--tol": "x"}),
    "sharpness": (["--t", "0.5"],
                  {"--t": "x", "--n": "n", "--b-max": "x", "--tol": "x"}),
    "density-profile": (["--b", "2", "--c", "1", "--t", "0:0.9:4"],
                        {"--b": "x", "--c": "x", "--n": "n", "--t": "r", "--tol": "x"}),
    "contract": (["--t", "0.5", "--samples", "1000"],
                 {"--t": "x", "--n": "n", "--eps": "x", "--radius": "x",
                  "--momentum": "x", "--samples": "m", "--seed": "s"}),
    "curvature": (["--heisenberg", "--samples", "5"],
                  {"--n": "n", "--eps": "x", "--tol": "x", "--samples": "k",
                   "--seed": "s"}),
}
_fuzz_number = st.one_of(
    st.sampled_from(["0", "-0.0", "1", "-1", "0.5", "0.99", "3.5", "1e4", "1e300",
                     "-1e300", "1e-300", "nan", "inf", "-inf"]),
    st.floats(-5.0, 5.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_fuzz_kinds = {
    "x": _fuzz_number,
    "n": st.integers(-3, 5).map(str),
    "r": st.one_of(_fuzz_number, st.builds(
        lambda lo, hi, k: f"{lo}:{hi}:{k}", _fuzz_number, _fuzz_number,
        st.sampled_from([-1, 0, 1, 2, 4]))),
    "m": st.one_of(st.integers(1000, 3000), st.integers(-1, 999)).map(str),
    "k": st.integers(-1, 20).map(str),
    "s": st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)).map(str),
}
_fuzz_junk = st.text(alphabet="0123456789.-+:eEnaif", max_size=6).filter(
    lambda v: v.count(":") != 2)


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    base, kinds = _FUZZ_COMMANDS[command]
    argv = [command, *base]
    for flag in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=3)):
        junk = draw(st.integers(0, 9)) == 0
        argv += [flag, draw(_fuzz_junk if junk else _fuzz_kinds[kinds[flag]])]
    extra = draw(st.integers(0, 19))
    if extra == 0:
        argv += ["--bogus", "1"]
    elif extra == 1:
        argv.append(draw(_fuzz_junk))
    return argv


@settings(max_examples=500, deadline=None, derandomize=True)
@given(argv=_fuzz_argv())
def test_fuzzed_argv_exits_0_1_or_2(argv):
    # no RuntimeWarning escapes, and a usage error of mcplab's own (not
    # argparse's, which prints its usage first) is one "error:" line
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv)
    assert rc in (0, 1, 2)
    err = err.getvalue()
    if rc == 2 and not err.startswith("usage:"):
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


def test_curvature_missing_model_file(tmp_path, capsys):
    rc = main(["curvature", "--model", str(tmp_path / "absent.json")])
    _one_line_usage_error(rc, capsys)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    rc = main(["curvature", "--model", str(garbled)])
    _one_line_usage_error(rc, capsys)


def test_mcp_scan_near_t_one_at_the_n_cap(capsys):
    # at t = 1 - 1e-8, (1-t)^43 and det A underflow to 0; the per-block
    # ratio does not, so nothing reads as a violation and nothing warns
    argv = ["mcp-scan", "--n", "20", "--b", "0:1:3", "--c", "-1:1:3",
            "--t", "0.1:0.99999999:3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    out = capsys.readouterr().out
    assert "violations: 0" in out and "nan" not in out


def test_closed_stdout_is_an_io_error():
    # the reader of stdout has gone before the first line is printed: one
    # line on stderr and exit 2, as for an unwritable --output
    proc = subprocess.Popen(
        [sys.executable, "-m", "mcplab.cli", "curvature", "--heisenberg", "--n", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def _readme_command_lines():
    """The mcplab command lines of README's usage block, continuations
    joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command-line usage", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines()
            if line.startswith("mcplab ")]


def test_readme_usage_block_runs(tmp_path, monkeypatch, capsys):
    lines = _readme_command_lines()
    assert len(lines) == 7
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "contract.json").exists() and (tmp_path / "profile.csv").exists()


def test_readme_python_block_runs(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Python API", 1)[1].split("```python", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    first, second = capsys.readouterr().out.splitlines()
    dens, bound = second.split()
    assert first == "None"
    assert float(dens) == pytest.approx(0.14533613780687574, rel=1e-12)
    assert bound == "0.03125"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mcplab.cli", "conjugate", "--b", "0",
         "--c", "3.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0.8975979" in proc.stdout


# A passing command line of each subcommand.
_PASSING = {
    "curvature": ["curvature", "--heisenberg", "--samples", "20"],
    "riccati": ["riccati", "--b", "1", "--c", "1", "--t", "0.2:0.8:3"],
    "conjugate": ["conjugate", "--b", "0", "--c", "3.5"],
    "mcp-scan": ["mcp-scan", "--b", "0:10:5", "--c", "-3:3:5", "--t", "0.05:0.95:5"],
    "sharpness": ["sharpness", "--t", "0.5"],
    "contract": ["contract", "--t", "0.3", "--samples", "1000"],
    "density-profile": ["density-profile", "--b", "2", "--c", "1", "--t", "0:0.9:4"],
}


def _subparser(name):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


@pytest.mark.parametrize("name", sorted(_PASSING))
def test_report_path(name, tmp_path, capsys):
    # every subcommand reports through main: the verdict line and exit
    # code, and a JSON report headed by its name and every one of its
    # flags, byte-identical when the same flags run again
    out = tmp_path / "report.json"
    assert main(_PASSING[name] + ["--output", str(out)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    if name == "conjugate":
        assert last.startswith("first conjugate time:")
    else:
        assert last == "PASS"
    first = out.read_bytes()
    assert main(_PASSING[name] + ["--output", str(out)]) == 0
    assert out.read_bytes() == first
    payload = json.loads(first)
    assert payload["command"] == name
    flags = {
        max(a.option_strings, key=len)[2:]
        for a in _subparser(name)._actions
        if a.option_strings and a.dest != "help"
    }
    assert set(payload["config"]) == flags - {"output", "heisenberg"}


def _traced_names():
    """The names bench/cli_traced.py wraps in mcplab.cli: its LAYERS and
    integrate_inverse_riccati."""
    path = Path(__file__).resolve().parents[1] / "bench" / "cli_traced.py"
    tree = ast.parse(path.read_text())
    layers = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS"
    )
    return sorted(ast.literal_eval(layers)) + ["integrate_inverse_riccati"]


def test_traced_names_are_called_through_cli(monkeypatch, capsys):
    # the benchmark times each layer by replacing these names in
    # mcplab.cli, so main must call them as module globals
    names = _traced_names()
    assert len(names) == 10
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    for argv in _PASSING.values():
        assert main(argv) == 0, argv
    assert all(calls.values()), calls
