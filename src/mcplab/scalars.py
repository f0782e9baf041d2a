"""The scalar answers, on Python floats: the data (b, c, n) of one geodesic
direction, its first conjugate time, and the sharpness infimum of the
contraction inequality.  This module imports the standard library and
errors' scalar readers alone and never loads numpy, so the conjugate and
sharpness subcommands run without it; riccati and mcp import these names
from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _count, _real


@dataclass(frozen=True)
class RiccatiParams:
    """Scalar data of one geodesic direction.

    b and c may carry either sign; every scalar output is even under
    b -> -b and c -> -c separately (the matrices themselves transform by a
    diagonal sign conjugation, see riccati.build_blocks).
    """

    b: float
    c: float
    n: int = 1

    def __post_init__(self):
        object.__setattr__(self, "b", _real(self.b, "b"))
        object.__setattr__(self, "c", _real(self.c, "c"))
        object.__setattr__(self, "n", _count(self.n, "n", 1))


def conjugate_time(params: RiccatiParams, t_max: float = 1.0):
    """First zero of det A in (0, t_max], or None: pi/|c| when that is at
    most t_max, and None at c = 0.

    With x = ct, det A = det A1 * (t sinc x)^{2n-2} and

        det A1 = t^5 sinc(x) h(t) / x^2,
        h(t) = (b^2 + c^2) sin x - b^2 x cos x.

    sinc x first vanishes at |x| = pi.  h vanishes only where
    tan x = k x with k = b^2 / (b^2 + c^2) < 1 (cos x = 0 would force
    sin x = 0 as well), and that has no root with 0 < x <= pi: on
    (0, pi/2) tan x > x > kx, on (pi/2, pi) tan x < 0 <= kx, and at
    x = pi tan x = 0 < kx unless b = 0, where h = c^2 sin x shares the
    zero of sinc.  So the first zero of det A is t = pi/|c| for every b.
    At c = 0, det A = t^{2n+1} (1 + b^2 t^2 / 3) has no positive zero.
    """
    t_max = _real(t_max, "t_max", 0.0)
    if params.c == 0.0:
        return None
    t_star = math.pi / abs(params.c)
    return t_star if t_star <= t_max else None


def sharpness_scan(t: float, b_max: float = 1e4) -> float:
    """Infimum of D(t) / (1-t)^(2n+3) over b in [0, b_max] and c in
    (0, pi), the same for every n: its c -> 0 limit on the row b = b_max,

        1 + 3 t (2 - t) / ((1 - t)^2 (3 + b_max^2)),

    on Python floats; a b_max^2 past float64 range is inf and gives 1.0.
    At n = 1 the ratio less its c = 0 value has the sign of a quadratic in
    b^2 with coefficients >= 0 on |c| < pi, and at n >= 2 it gains the
    factor (sinc(cs) / sinc(c))^(2n-2) >= 1; the infimum exceeds 1, so
    D(t) >= (1-t)^(2n+3).  tests/test_sharpness_certificate.py proves it."""
    t, b_max = _real(t, "t", 0.0, 1.0), _real(b_max, "b_max", 0.0)
    s = 1.0 - t
    return 1.0 + 3.0 * t * (2.0 - t) / (s * s * (3.0 + b_max * b_max))
