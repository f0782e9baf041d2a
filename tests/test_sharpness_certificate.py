"""A proof, in exact rational arithmetic, of the lemma behind
mcp.sharpness_scan's closed form, and with it of D(t) >= (1-t)^(2n+3) on
the model group's whole regime |c| < pi, for every n.

D is even in b and in c, so take b, c >= 0.  With s = 1 - t in (0, 1],
x = cs, beta = b^2, A = sinc^2 and G = sinc sxc, the ratio
D(t) / (1-t)^(2n+3) is

    R_n = R_1 (sinc(x) / sinc(c))^(2n-2),
    R_1 = [s^3 A(x) + beta s^5 G(x)] / [s^5 (A(c) + beta G(c))],

and R_1 at c = 0 is (3 + beta s^2) / (s^2 (3 + beta)), since A(0) = 1 and
G(0) = 1/3.  R_1(c) - R_1(0), times the positive s^5 (A(c) + beta G(c))
(1 + beta / 3), is the quadratic in beta

    s^3 (A(x) - A(c)) + beta s^3 h + beta^2 s^5 (G(x) - G(c)) / 3,
    h = s^2 G(x) - G(c) + (A(x) - s^2 A(c)) / 3.

Three facts make every coefficient >= 0 on [0, pi] x [0, 1]:

1. sinc decreases on [0, pi]: -sinc'(x) / x > 0;
2. G decreases on [0, pi]: -G'(x) / x > 0;
3. q = h / (c^2 (1 - s^2)) > 0.

Both sinc and G vanish at pi, so both are positive on [0, pi), A
decreases too, and x <= c gives A(x) >= A(c), G(x) >= G(c) and
sinc(x) / sinc(c) >= 1.  Hence R_n(c) >= R_1(c) >= R_1(0), and R_1(0)
decreases in beta: over b in [0, b_max] the infimum is R_1(0) at
beta = b_max^2, the closed form.  The final step, R_1(0) >= 1 for every
beta >= 0 and s in (0, 1], is the contraction inequality; it holds for
the exponent 2n + 3 and fails for 2n + 2, where R_1(0) s tends to s < 1
as beta grows.

Each fact is a series sum_{k>=1} c^(2k-2) P_k(s^2), with exact rational
coefficients (one variable: P_k constant).  On a box [c0, c1] x [s0, s1]
of numbers >= 0 each monomial grows with c and s, so with P_k = P_k^+ -
P_k^- split by the signs of its coefficients (one box corner per
monomial)

    sum_{k<=K} c0^(2k-2) P_k^+(s0^2) - c1^(2k-2) P_k^-(s1^2) - tail

is a lower bound on the box; _TAIL bounds the terms past K.  Boxes of
[0, 355/113] x [0, 1] (355/113 > pi) whose bound is not above the fact's
floor are bisected.
"""

import functools
import itertools
import math
from fractions import Fraction
from time import perf_counter

import mpmath
import numpy as np

from mcplab import _MAX_N
from mcplab.mcp import _density_ratio

PI_HI = Fraction(355, 113)
# Terms evaluated per box; the rest are bounded by _TAIL.
K = 18
# Terms generated, to check the tail bound's premise past K.
_TERMS = 60
# The most boxes one fact may take before the certificate gives up.
_MAX_BOXES = 20_000


def _a(k):
    """sinc^2 = sum_k a_k x^(2k)."""
    return Fraction((-1) ** k * 2 ** (2 * k + 1), math.factorial(2 * k + 2))


def _g(k):
    """G = sinc sxc = sum_k g_k x^(2k)."""
    return Fraction((-1) ** k * 2 ** (2 * k + 3) * (k + 1), math.factorial(2 * k + 4))


def _over_one_minus_u(poly):
    """poly / (1 - u), for poly's coefficients in ascending powers of u:
    the quotient's coefficients are poly's partial sums, and the remainder,
    their total, must be 0."""
    assert sum(poly) == 0
    return list(itertools.accumulate(poly))[:-1]


def _q_series():
    """q = h / (c^2 (1 - s^2)) as [P_1, P_2, ...], P_k the coefficients of
    c^(2k-2) in ascending powers of u = s^2, divided exactly from h's own
    series: its c^(2k) coefficient is
    g_k u^(k+1) - g_k + (a_k u^k - a_k u) / 3, 0 at k = 0."""
    def h(k):
        poly = [Fraction(0)] * (k + 2)
        poly[k + 1] += _g(k)
        poly[0] -= _g(k)
        poly[k] += _a(k) / 3
        poly[1] -= _a(k) / 3
        return poly

    assert not any(h(0))
    return [_over_one_minus_u(h(k)) for k in range(1, _TERMS + 1)]


# -sinc'(x) / x and -G'(x) / x, from sinc = sum_k (-1)^k x^(2k) / (2k+1)!
# and G's g_k, differentiated term by term.
_SINC_SERIES = [[Fraction((-1) ** (k + 1) * 2 * k, math.factorial(2 * k + 1))]
                for k in range(1, _TERMS + 1)]
_G_SERIES = [[-2 * k * _g(k)] for k in range(1, _TERMS + 1)]

# Every term past K is at most u_k = PI_HI^(2k-2) 2^(2k+1) / (2k+1)! on
# [0, PI_HI] x [0, 1]: the coefficients of P_k sum in absolute value to
# 2k / (2k+1)!, 2k |g_k| or |a_k| (k-1) / 3 + |g_k| (k+1), each at most
# 2^(2k+1) / (2k+1)! (test_tail_bound_premise checks it for k <= _TERMS).
# As PI_HI < 4, u_(k+1) / u_k <= 64 / ((2k+2)(2k+3)) <= 1/2 from k = 5,
# so the terms past K sum to at most 2 u_(K+1).
_TAIL = 2 * PI_HI ** (2 * K) * Fraction(2 ** (2 * K + 3), math.factorial(2 * K + 3))


def _certify(series, floor, s_box=(Fraction(0), Fraction(1))):
    """Cover [0, PI_HI] x s_box with boxes on each of which the series'
    lower bound exceeds floor; return (boxes, least bound).  A series in
    c alone takes the s_box (1, 1), of width 0."""
    parts = [([max(a, 0) for a in p], [max(-a, 0) for a in p]) for p in series[:K]]

    @functools.cache
    def at(s, sign):
        u = s * s
        return [functools.reduce(lambda acc, a: acc * u + a, reversed(p[sign]), Fraction(0))
                for p in parts]

    def lower(c0, c1, s0, s1):
        total = Fraction(0)
        u0, u1 = c0 * c0, c1 * c1
        u0_pow = u1_pow = Fraction(1)
        for plus, minus in zip(at(s0, 0), at(s1, 1)):
            total += u0_pow * plus - u1_pow * minus
            u0_pow *= u0
            u1_pow *= u1
        return total - _TAIL

    stack = [(Fraction(0), PI_HI, *s_box)]
    boxes, least = 0, None
    while stack:
        c0, c1, s0, s1 = stack.pop()
        bound = lower(c0, c1, s0, s1)
        if bound > floor:
            boxes += 1
            least = bound if least is None else min(least, bound)
            continue
        assert boxes + len(stack) < _MAX_BOXES, (c0, c1, s0, s1, float(bound))
        if c1 - c0 >= 2 * (s1 - s0):
            mid = (c0 + c1) / 2
            stack += [(c0, mid, s0, s1), (mid, c1, s0, s1)]
        else:
            mid = (s0 + s1) / 2
            stack += [(c0, c1, s0, mid), (c0, c1, mid, s1)]
    return boxes, least


def _final_step(n, p):
    """Whether R_1(0) s^(2n+3-p) >= 1 is proven for all beta >= 0 and
    s in (0, 1].  Less 1, times s^p (3 + beta) > 0, it reads
    N = 3 s^(2n+1) + beta s^(2n+3) - 3 s^p - beta s^p >= 0, which is linear
    in beta >= 0 and so needs each coefficient >= 0 on [0, 1].  A
    polynomial sum_j e_j s^j is sum_m E_m (s^m - s^(m+1)) plus its top
    term, E_m = e_0 + ... + e_m; each s^m - s^(m+1) >= 0 on [0, 1], so
    partial sums E_m >= 0 prove it."""
    coefficients = [{2 * n + 1: 3}, {2 * n + 3: 1}]
    for coef, minus in zip(coefficients, (3, 1)):
        coef[p] = coef.get(p, 0) - minus
    return all(partial >= 0 for coef in coefficients
               for partial in itertools.accumulate(coef[j] for j in sorted(coef)))


def _sinc(x):
    return mpmath.sin(x) / x


def _G(x):
    return _sinc(x) * (mpmath.sin(x) - x * mpmath.cos(x)) / x**3


def test_series_against_mpmath():
    # the coefficients the proof rests on: sinc^2, G, -sinc'/x and -G'/x
    # against 40-digit mpmath, and q against h / (c^2 (1 - s^2)) from the
    # closed forms of A and G
    sinc, G = _sinc, _G

    def series(coefficients, c, s=1):
        return sum(mpmath.mpf(a.numerator) / a.denominator * c ** (2 * k) * s ** (2 * j)
                   for k, poly in enumerate(coefficients) for j, a in enumerate(poly))

    with mpmath.workdps(40):
        for x in (mpmath.mpf("0.5"), mpmath.mpf(2), mpmath.pi):
            for got, want in (
                (series([[_a(k)] for k in range(_TERMS)], x), sinc(x) ** 2),
                (series([[_g(k)] for k in range(_TERMS)], x), G(x)),
                (series(_SINC_SERIES, x), -mpmath.diff(sinc, x) / x),
                (series(_G_SERIES, x), -mpmath.diff(G, x) / x),
            ):
                assert abs(got - want) < mpmath.mpf(10) ** -30, (x, got, want)
        for c, s in ((mpmath.mpf("0.3"), mpmath.mpf("0.9")), (mpmath.pi, mpmath.mpf("0.5")),
                     (mpmath.mpf(3), mpmath.mpf("0.999"))):
            x = c * s
            h = s**2 * G(x) - G(c) + (sinc(x) ** 2 - s**2 * sinc(c) ** 2) / 3
            assert abs(series(_q_series(), c, s) - h / (c**2 * (1 - s**2))) < mpmath.mpf(10) ** -30


def test_lemma_identity_against_the_ratio():
    # R_n = R_1 (sinc x / sinc c)^(2n-2) is mcplab's ratio, and R_1(c) -
    # R_1(0) is the quadratic in beta over its denominator
    def A(y):
        return _sinc(y) ** 2

    G = _G
    rng = np.random.default_rng(11)
    with mpmath.workdps(40):
        for b, c, t, n in zip(rng.uniform(0.0, 30.0, 20), rng.uniform(1e-3, 3.1, 20),
                              rng.uniform(0.01, 0.99, 20), rng.integers(1, 6, 20)):
            s, cc, beta = 1 - mpmath.mpf(t), mpmath.mpf(c), mpmath.mpf(b) ** 2
            x = cc * s
            R1 = (s**3 * A(x) + beta * s**5 * G(x)) / (s**5 * (A(cc) + beta * G(cc)))
            R1_0 = (3 + beta * s**2) / (s**2 * (3 + beta))
            h = s**2 * G(x) - G(cc) + (A(x) - s**2 * A(cc)) / 3
            quadratic = (s**3 * (A(x) - A(cc)) + beta * s**3 * h
                         + beta**2 * s**5 * (G(x) - G(cc)) / 3)
            den = s**5 * (A(cc) + beta * G(cc)) * (1 + beta / 3)
            assert abs((R1 - R1_0) - quadratic / den) < mpmath.mpf(10) ** -25 * R1
            R = float(R1 * (_sinc(x) / _sinc(cc)) ** (2 * n - 2))
            assert abs(_density_ratio(b, c, int(n), t)[1] / R - 1) < 1e-12


def test_tail_bound_premise():
    # each series' coefficients of c^(2k-2) sum in absolute value to at
    # most 2^(2k+1) / (2k+1)!, the premise of _TAIL, for k <= _TERMS
    for series in (_SINC_SERIES, _G_SERIES, _q_series()):
        for k, poly in enumerate(series, start=1):
            assert sum(map(abs, poly)) <= Fraction(2 ** (2 * k + 1), math.factorial(2 * k + 1))
    with mpmath.workdps(40):
        assert mpmath.pi < mpmath.mpf(PI_HI.numerator) / PI_HI.denominator < 4


def test_sharpness_certificate(capsys):
    # the three facts on their whole regions, each with a positive floor,
    # then the final step for every n; together they prove that
    # sharpness_scan's closed form is the infimum and that
    # D(t) >= (1-t)^(2n+3) for |c| < pi
    start = perf_counter()
    one = (Fraction(1), Fraction(1))
    facts = (
        ("-sinc'(x)/x", _SINC_SERIES, Fraction(1, 20), one, "[0, 355/113]"),
        ("-G'(x)/x", _G_SERIES, Fraction(1, 200), one, "[0, 355/113]"),
        ("q(c, s)", _q_series(), Fraction(1, 1000), (Fraction(0), Fraction(1)),
         "[0, 355/113] x [0, 1]"),
    )
    lines = []
    for name, series, floor, s_box, region in facts:
        boxes, least = _certify(series, floor, s_box)
        assert least > floor > 0
        lines.append(f"{name} >= {float(least):.4g} on {region} ({boxes} boxes)")
    assert all(_final_step(n, 2 * n + 3) for n in range(1, _MAX_N + 1))
    elapsed = perf_counter() - start
    with capsys.disabled():
        print(f"\n[certificate] {'; '.join(lines)}; final step at 2n+3 for n <= {_MAX_N}; "
              f"{elapsed:.1f}s", flush=True)
    assert elapsed < 10.0


def test_certificate_final_step_fails_at_exponent_2n_plus_2():
    # the mutation: with exponent 2n + 2 the final step is not proven, and
    # it is false, since at c -> 0 and beta -> infinity the ratio tends to
    # s < 1
    assert not any(_final_step(n, 2 * n + 2) for n in range(1, _MAX_N + 1))
    for n in (1, 2, 20):
        for t in (0.1, 0.5, 0.9):
            ratio = _density_ratio(1e8, 1e-9, n, t)[1] * (1.0 - t)
            assert ratio < 1.0 and abs(ratio - (1.0 - t)) < 1e-9


def test_closed_form_is_the_c_to_0_limit():
    # sharpness_scan's formula, 1 + 3t(2-t) / ((1-t)^2 (3 + b_max^2)), is
    # R_1(0) at beta = b_max^2 (test_sharpness_formula_against_mpmath
    # checks the floats against it)
    for t in (0.001, 0.3, 0.5, 0.9, 0.999):
        for b_max in (1e-3, 0.5, 1.0, 1e4):
            tt, beta = Fraction(t), Fraction(b_max) ** 2
            s2 = (1 - tt) ** 2
            assert (3 + beta * s2) / (s2 * (3 + beta)) == 1 + 3 * tt * (2 - tt) / (s2 * (3 + beta))
