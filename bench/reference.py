"""Reference values computed apart from mcplab.

Nothing here imports mcplab.  The determinant of the distortion matrix is
written out from its formula with the standard library's math module,

    det A(s) = [s^3 sinc^2(cs) + b^2 s^5 sinc(cs) sxc(cs)] (s sinc(cs))^(2n-2),

with sinc x = sin x / x and sxc x = (sin x - x cos x) / x^3.  The
contraction ratio of a velocity set is the ratio of two nested adaptive
quadratures of that formula with weight rho^(2n-1); the first conjugate
time is pi / |c|.
"""

from __future__ import annotations

import math

# Below this |x| the cancelling forms are replaced by their Taylor series,
# summed until the terms vanish in double precision.
_SERIES_BELOW = 0.5


def sinc(x: float) -> float:
    """sin x / x, equal to 1 at 0."""
    if abs(x) < _SERIES_BELOW:
        total, term, k = 1.0, 1.0, 0
        while True:
            k += 1
            term *= -x * x / ((2 * k) * (2 * k + 1))
            if total + term == total:
                return total
            total += term
    return math.sin(x) / x


def sxc(x: float) -> float:
    """(sin x - x cos x) / x^3, equal to 1/3 at 0.

    Series: sum over k >= 1 of (-1)^(k+1) 2k x^(2k-2) / (2k+1)!."""
    if abs(x) < _SERIES_BELOW:
        total = 0.0
        fact = 6.0  # (2k+1)! at k = 1
        power = 1.0  # x^(2k-2) at k = 1
        k = 1
        while True:
            term = (-1.0) ** (k + 1) * 2 * k * power / fact
            if total + term == total:
                return total
            total += term
            k += 1
            fact *= (2 * k) * (2 * k + 1)
            power *= x * x
    return (math.sin(x) - x * math.cos(x)) / x**3


def det_a(b: float, c: float, n: int, s: float) -> float:
    """det A(s) along a geodesic with scalars (b, c) in dimension 2n + 1."""
    x = c * s
    sc = sinc(x)
    block1 = s**3 * sc * sc + b * b * s**5 * sc * sxc(x)
    return block1 * (s * sc) ** (2 * n - 2)


def density(b: float, c: float, n: int, t: float) -> float:
    """Contraction density D(t) = det A(1 - t) / det A(1)."""
    return det_a(b, c, n, 1.0 - t) / det_a(b, c, n, 1.0)


def bound(n: int, t: float) -> float:
    """The comparison profile (1 - t)^(2n+3)."""
    return (1.0 - t) ** (2 * n + 3)


def contraction_ratio(
    n: int, eps: float, radius: float, momentum: float, t: float
) -> float:
    """mu(U_t) / mu(U_0) for the velocity set |w_H| <= radius,
    |<w, V>| <= momentum, by nested adaptive quadrature.

    A member with horizontal size rho and vertical momentum p has
    b = -eps rho / 2 and c = p / 2; the sphere factor rho^(2n-1) weighs
    the horizontal size."""
    from scipy.integrate import quad

    def integral(s):
        def inner(rho):
            b = -0.5 * eps * rho
            w = rho ** (2 * n - 1)
            value, _ = quad(
                lambda p: w * det_a(b, 0.5 * p, n, s),
                -momentum, momentum, epsabs=0.0, epsrel=1e-12, limit=200,
            )
            return value

        value, _ = quad(inner, 0.0, radius, epsabs=0.0, epsrel=1e-12, limit=200)
        return value

    return integral(1.0 - t) / integral(1.0)


def conjugate_time(c: float):
    """First zero of det A in (0, 1], or None.

    sin(cs) vanishes first at pi / |c|; the other factor of the first block
    vanishes where tan x = k x with k = b^2 / (b^2 + c^2) < 1, which has no
    root in (0, pi], so b does not enter."""
    if c == 0.0:
        return None
    t_star = math.pi / abs(c)
    return t_star if t_star <= 1.0 else None


def k2hat(x: float) -> float:
    """(x cot x - 1) / x^2, used to place the poles of F(1 - t)."""
    return (x * math.cos(x) / math.sin(x) - 1.0) / (x * x)


def riccati_poles(b: float, c: float) -> list:
    """Times t in (0, 1) where the closed-form F(1 - t) has a pole.

    For pi < |c| t < 4.4934 (the first positive root of tan x = x) the
    poles are t = pi / |c| and, for b != 0, the root of
    b^2 t^2 k2hat(ct) = 1 just after it, located here by bisection.
    Only |c| < 2 pi is handled, which covers every geodesic the
    benchmark draws."""
    if abs(c) >= 2.0 * math.pi:
        raise ValueError("riccati_poles handles |c| < 2 pi only")
    t_star = math.pi / abs(c) if c else math.inf
    if t_star >= 1.0:
        return []
    poles = [t_star]
    if b == 0.0:
        return poles
    x_tan = 4.493409457909064  # first positive root of tan x = x
    lo = t_star * (1.0 + 1e-12)
    hi = min(x_tan / abs(c), 1.0)

    def f(t):
        return b * b * t * t * k2hat(c * t) - 1.0

    if f(hi) > 0.0:
        return poles  # the root lies past t = 1
    if f(lo) <= 0.0:
        return poles + [lo]  # within 1e-12 relative of t_star
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15:
            break
    poles.append(0.5 * (lo + hi))
    return poles


def trace_f1(b: float, c: float, t: float) -> float:
    """tr F1(1 - t) = -(d/dt) log det of the 3x3 block of A(t), by a
    five-point central difference of the written-out determinant (step
    1e-3 t: truncation and rounding both near 1e-11 relative)."""
    h = 1e-3 * t

    def f(s):
        return math.log(det_a(b, c, 1, s))

    return -(-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)
