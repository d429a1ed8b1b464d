"""Reference values the benchmark computes apart from gridzeta.

Nothing here imports gridzeta.  Each reference reaches the same quantity
by another method than the route it checks:

* `zeta_mpmath`: Z(u) from the one-dimensional log-determinant integral,
  evaluated with mpmath at 30 digits;
* `LatticeSeries`: the log-determinant series from the walk-moment
  expansion of log(1 + 3u^2 - 2u(cos s + cos t)), in exact `Fraction`s,
  and from it Z's coefficients and the geodesic counts N_m;
* `grid_log_zeta_slogdet`: (log zeta)/v of a square grid graph from a
  numpy `slogdet` of a Bass matrix built here.

mpmath and numpy are imported inside the functions, so importing this
module costs the set-up time nothing.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import comb

OMEGA_RADIUS = 1.0 / math.sqrt(3.0)


def distance_to_D(u: complex) -> float:
    """Distance from u to D: the circle |u| = 1/sqrt(3) and the real
    segments [1/3, 1] and [-1, -1/3]."""
    d = abs(abs(u) - OMEGA_RADIUS)
    for sign in (1.0, -1.0):
        x = min(max(sign * u.real, 1.0 / 3.0), 1.0)
        d = min(d, abs(u - sign * x))
    return d


def zeta_mpmath(u: complex, dps: int = 30) -> complex:
    """Z(u) = exp(-logdet)/(1 - u^2) on the principal region, with

        logdet = log((1+3u^2)/2) + (2/pi) int_0^{pi/2} log(1 + sqrt(1 - k^2 sin^2 w)) dw,

    k = 4u/(1+3u^2).  The interval is split where k^2 sin^2 w comes nearest
    to 1, so tanh-sinh quadrature keeps its accuracy next to D.
    """
    import mpmath

    with mpmath.workdps(dps):
        u = mpmath.mpc(u)
        k = 4 * u / (1 + 3 * u * u)
        k2 = k * k
        half_pi = mpmath.pi / 2
        cuts = [mpmath.mpf(0), half_pi]
        w_star = mpmath.asin(1 / k)
        for c in (w_star.real, (mpmath.pi - w_star).real, (-w_star).real):
            if 0 < c < half_pi:
                cuts.append(c)
        cuts.sort()
        integral = mpmath.quad(
            lambda w: mpmath.log(1 + mpmath.sqrt(1 - k2 * mpmath.sin(w) ** 2)), cuts
        )
        logdet = mpmath.log((1 + 3 * u * u) / 2) + 2 / mpmath.pi * integral
        return complex(mpmath.exp(-logdet) / (1 - u * u))


class LatticeSeries:
    """Exact series data of the lattice from the walk-moment expansion.

    With c = cos s + cos t, E[c^(2k)] = binomial(2k,k)^2 / 4^k over the torus, so

        logdet = log(1+3u^2) - sum_k binomial(2k,k)^2 u^(2k) / (2k (1+3u^2)^(2k)).

    Expanding (1+3u^2)^(-2k) binomially gives every coefficient as a finite
    sum; log Z = -log(1-u^2) - logdet and Z = exp(log Z).
    """

    def __init__(self, max_M: int):
        self.max_M = max_M
        self.logdet = [Fraction(0)] * (max_M + 1)  # coefficient of u^(2M)
        for M in range(1, max_M + 1):
            c = Fraction((-1) ** (M + 1) * 3**M, M)
            for k in range(1, M + 1):
                j = M - k
                c -= Fraction(comb(2 * k, k) ** 2, 2 * k) * (-1) ** j * comb(2 * k + j - 1, j) * 3**j
            self.logdet[M] = c
        self.log_zeta = [Fraction(0)] + [
            Fraction(1, M) - self.logdet[M] for M in range(1, max_M + 1)
        ]
        # Z = exp(L) in the variable x = u^2: Z' = L' Z gives the recurrence
        z = [Fraction(1)] + [Fraction(0)] * max_M
        for n in range(1, max_M + 1):
            z[n] = sum(j * self.log_zeta[j] * z[n - j] for j in range(1, n + 1)) / n
        self.zeta_even = z

    def zeta_coeffs(self, order: int) -> list[Fraction]:
        """Coefficients of Z through u^order (odd ones vanish)."""
        return [self.zeta_even[n // 2] if n % 2 == 0 else Fraction(0) for n in range(order + 1)]

    def geodesic_count(self, m: int) -> Fraction:
        """N_m = m [u^m] log Z."""
        if m % 2:
            return Fraction(0)
        return m * self.log_zeta[m // 2]

    def primitive_classes(self, m: int) -> Fraction:
        """(1/m) sum over d | m of mu(m/d) N_d."""
        return sum(
            (_moebius(m // d) * self.geodesic_count(d) for d in range(1, m + 1) if m % d == 0),
            Fraction(0),
        ) / m


def _moebius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def series_log(coeffs) -> list[Fraction]:
    """log of a series with constant term one, by (log a)' = a'/a."""
    a = list(coeffs)
    if a[0] != 1:
        raise ValueError("series_log needs constant term one")
    n = len(a) - 1
    out = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):  # m L_m = m a_m - sum_{j<m} j L_j a_{m-j}
        s = m * a[m] - sum(j * out[j] * a[m - j] for j in range(1, m))
        out[m] = s / m
    return out


def grid_log_zeta_slogdet(s: int, u: complex):
    """(log zeta)/v for the s-by-s grid graph, from numpy's slogdet.

    zeta^-1 = (1-u^2)^(e-v) det(I - Au + (Deg-I)u^2).  The imaginary part of
    the log is fixed only modulo 2 pi; the caller compares modulo that.
    """
    import numpy as np

    v = s * s
    e = 2 * s * (s - 1)
    bass = np.eye(v, dtype=complex)
    deg = np.zeros(v)
    for i in range(s):
        for j in range(s):
            a = i * s + j
            for b in ((i + 1) * s + j if i + 1 < s else None, a + 1 if j + 1 < s else None):
                if b is not None:
                    bass[a, b] -= u
                    bass[b, a] -= u
                    deg[a] += 1
                    deg[b] += 1
    bass += np.diag((deg - 1) * u * u)
    sign, logabs = np.linalg.slogdet(bass)
    log_det = logabs + cmath.log(sign)
    return (-(e - v) * cmath.log(1 - u * u) - log_det) / v, v
