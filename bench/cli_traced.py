"""Run one mcplab command line with spans around its library calls.

Usage: python3 bench/cli_traced.py SPANS.json LABEL -- ARGV...

Imports mcplab.cli in this fresh interpreter, replaces the library
functions that mcplab.cli binds by name with wrappers that record a span
per call, and calls ``main(ARGV)`` inside a span named ``cli.main.LABEL``.
The spans are written to SPANS.json even when main raises; the exit code
and any traceback are main's, as with ``python -m mcplab.cli``.
"""

from __future__ import annotations

import json
import sys

from common import Tracer, riccati_span_name

# Names bound in mcplab.cli -> layer names of their spans.
LAYERS = {
    "verify_structure_identities": "frame_algebra.identity_catalog",
    "check_main_hypotheses": "frame_algebra.check_main_hypotheses",
    "mcp_scan": "mcp.mcp_scan",
    "sharpness_scan": "mcp.sharpness_scan",
    "density_profile": "mcp.density_profile",
    "monte_carlo_contraction": "mcp.monte_carlo_contraction",
    "quadrature_contraction": "mcp.quadrature_contraction",
    "closed_forms": "riccati.closed_forms",
    "conjugate_time": "riccati.conjugate_time",
}


def install(cli, tr: Tracer) -> None:
    """Wrap the names in LAYERS, integrate_inverse_riccati (named by its
    chart band) and record the counts the reports carry."""

    def wrap(attr, name_of, on_result=None):
        fn = getattr(cli, attr)

        def traced(*args, **kwargs):
            result = tr.call(name_of(args), fn, *args, **kwargs)
            if on_result is not None:
                on_result(result, kwargs)
            return result

        setattr(cli, attr, traced)

    def identities(report, _kwargs):
        tr.count("frame_algebra.identities_checked", len(report.identities))

    def samples(result, kwargs):
        tr.count("mcp.samples_used", result.samples_used)
        tr.count("mcp.samples_rejected",
                 round(result.rejected_fraction * kwargs["samples"]))

    hooks = {"verify_structure_identities": identities,
             "monte_carlo_contraction": samples}
    for attr, name in LAYERS.items():
        wrap(attr, lambda _args, name=name: name, hooks.get(attr))
    wrap("integrate_inverse_riccati", lambda args: riccati_span_name(args[0].c))


def main() -> int:
    out, label, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    import mcplab.cli as cli

    tr = Tracer(True)
    install(cli, tr)
    try:
        return tr.call(f"cli.main.{label}", cli.main, argv)
    finally:
        with open(out, "w") as fh:
            json.dump(tr.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
