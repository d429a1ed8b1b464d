"""Exact power-series data for the lattice zeta function.

The log-determinant of the deformed lattice Laplacian I - Au + 3u^2 has an
even power series in u whose coefficients come from closed-walk moments of
the square lattice: the number of closed walks of length 2k from a fixed
vertex is binomial(2k,k)^2.  Exponentiating gives the determinant series,
and dividing 1/(1-u^2) by it gives the zeta series itself.

Independently, the same zeta function has a closed form t e^{-F(t)} / (u(1-u^2))
where t(u) is the branch of the modulus relation 4u/(1+3u^2) = theta2^2(t)/theta3^2(t^2)
with t ~ u, and F is the primitive of (1 - theta3^2 theta4^4)/t (thetas at
q = t^2) vanishing at 0.  Composing everything as exact series must reproduce
the combinatorial zeta series coefficient for coefficient; that equality is
the central exact cross-check of this package.

Everything in this module is exact rational arithmetic, except the float
bound `zeta_series_tail_bound` on what a truncated zeta series leaves out.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

from .errors import InvariantError
from .powerseries import ExactSeries

__all__ = [
    "closed_walk_moment",
    "trlog_series",
    "det_series",
    "zeta_series",
    "zeta_series_tail_bound",
    "theta_series_exact",
    "theta_product_series",
    "modulus_t_series",
    "f_and_F_series",
    "t_series_in_u",
    "zeta_series_via_theta",
    "geodesic_counts_from_series",
]


def closed_walk_moment(k: int) -> int:
    """Number of closed walks of length 2k on the square lattice from a
    fixed vertex: binomial(2k, k)^2."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return comb(2 * k, k) ** 2


def trlog_series(max_M: int) -> ExactSeries:
    """Log-determinant series: even series in u through u^(2 max_M).

    The u^(2M) coefficient is
        -sum_{k=0}^{M} (-3)^(M-k)/(M+k) * binomial(M+k, 2k) * binomial(2k, k)^2,
    which evaluates to u^2 - 3/2 u^4 - 11/3 u^6 - ...
    """
    if max_M < 1:
        raise ValueError("max_M must be >= 1")
    coeffs = [Fraction(0)] * (2 * max_M + 1)
    for M in range(1, max_M + 1):
        s = Fraction(0)
        for k in range(0, M + 1):
            s += Fraction((-3) ** (M - k), M + k) * comb(M + k, 2 * k) * closed_walk_moment(k)
        coeffs[2 * M] = -s
    return ExactSeries(coeffs, var="u")


def det_series(max_M: int) -> ExactSeries:
    """Determinant series exp(trlog): 1 + u^2 - u^4 - 5u^6 - ..."""
    return trlog_series(max_M).exp()


def _one_minus_u2(order: int) -> ExactSeries:
    return (ExactSeries.one(order, "u") - ExactSeries.identity(order, "u") * ExactSeries.identity(order, "u")).pad(order)


def zeta_series(max_M: int) -> ExactSeries:
    """Zeta series 1/((1-u^2) det): 1 + 2u^4 + 4u^6 + 29u^8 + ..."""
    order = 2 * max_M
    det = det_series(max_M)
    return (_one_minus_u2(order) * det).reciprocal()


def zeta_series_tail_bound(order: int, r: float) -> float:
    """Bound on the sum over j > order of |z_j| r^j, z_j the u^j coefficients of Z.

    A geodesic of length m has 4 first steps and at most 3 for each later
    one, so 0 <= N_m <= 4 * 3^(m-1) and log Z = sum N_m u^m / m is dominated
    coefficientwise by -(4/3) log(1 - 3u); hence Z is dominated by
    (1 - 3u)^(-4/3) = sum b_j u^j, with b_j = b_(j-1) (3j + 1) / j.  The ratio
    of consecutive terms b_j r^j falls with j, so past j = order + 1 the tail
    is a geometric series.  Infinite when that ratio is not below 1.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    r = abs(r)
    term = 1.0  # b_j r^j, taken to j = order + 1
    for j in range(1, order + 2):
        term *= r * (3 * j + 1) / j
    ratio = r * (3 * order + 7) / (order + 2)
    return term / (1.0 - ratio) if ratio < 1.0 else math.inf


def theta_series_exact(order: int):
    """Exact integer-coefficient theta expansions.

    Returns (theta2_sq_over_4t, theta3_q, theta4_q): the first is a series in
    t equal to theta2^2/(4t) = (sum_{n>=0} t^(2n(n+1)))^2, the other two are
    series in q with coefficients 2 (resp. 2(-1)^n) at the square exponents.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    c3 = [Fraction(0)] * (order + 1)
    c4 = [Fraction(0)] * (order + 1)
    c3[0] = c4[0] = Fraction(1)
    n = 1
    while n * n <= order:
        c3[n * n] = Fraction(2)
        c4[n * n] = Fraction(2 if n % 2 == 0 else -2)
        n += 1
    half = [Fraction(0)] * (order + 1)
    n = 0
    while 2 * n * (n + 1) <= order:
        half[2 * n * (n + 1)] = Fraction(1)
        n += 1
    half_series = ExactSeries(half, var="t")
    return half_series * half_series, ExactSeries(c3, var="q"), ExactSeries(c4, var="q")


def theta_product_series(order: int):
    """The three theta expansions obtained from the infinite products.

    Same return convention as theta_series_exact; expanding the products
    exactly must give identical coefficients, which the tests assert.
    """

    def monomial(exponent, coeff, var):
        c = [Fraction(0)] * (order + 1)
        c[0] = Fraction(1)
        if exponent <= order:
            c[exponent] += Fraction(coeff)
        return ExactSeries(c, var=var)

    def power(s, e):
        acc = ExactSeries.one(order, s.var)
        for _ in range(e):
            acc = acc * s
        return acc

    f3 = ExactSeries.one(order, "q")
    f4 = ExactSeries.one(order, "q")
    n = 1
    while 2 * n - 1 <= order:
        even = monomial(2 * n, -1, "q")
        f3 = f3 * even * power(monomial(2 * n - 1, 1, "q"), 2)
        f4 = f4 * even * power(monomial(2 * n - 1, -1, "q"), 2)
        n += 1
    f2 = ExactSeries.one(order, "t")
    n = 1
    while 4 * n <= order:
        f2 = f2 * power(monomial(4 * n, -1, "t"), 2) * power(monomial(4 * n, 1, "t"), 4)
        n += 1
    return f2, f3, f4


def modulus_t_series(order: int) -> ExactSeries:
    """The modulus k as an exact (odd) series in t: k = 4t + O(t^3)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    th2_over_4t, th3, _ = theta_series_exact(order)
    th3_t = th3.dilate(2).truncate(order)  # theta3 at q = t^2, as a t-series
    denom = (th3_t * th3_t).pad(order)
    ratio = th2_over_4t.pad(order) * denom.reciprocal()
    return (ratio.truncate(order - 1).shift_up(1) * 4).truncate(order)


def f_and_F_series(order: int):
    """Exact series (f, F) in t with F' = f, F(0) = 0.

    f(t) = (1 - theta3^2(q) theta4^4(q))/t at q = t^2; it has odd powers of t
    only, so F has even powers only.  F.order == order.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    qorder = order // 2
    _, th3, th4 = theta_series_exact(qorder)
    th3 = th3.pad(qorder)
    th4 = th4.pad(qorder)
    prod_q = th3 * th3 * th4 * th4 * th4 * th4  # theta3^2 theta4^4 in q
    prod_t = prod_q.dilate(2).pad(order)
    f = (ExactSeries.one(order, "t") - prod_t).shift_down(1)
    F = f.integral(0).truncate(order)
    F = ExactSeries(F.coeffs, var="t")
    f = ExactSeries(f.coeffs, var="t")
    return f, F


def t_series_in_u(order: int) -> ExactSeries:
    """The branch t(u) = u + O(u^3) of the modulus relation, as an exact series.

    Obtained by compositional reversion of the modulus-in-t series followed
    by composition with 4u/(1+3u^2).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    kappa = modulus_t_series(order).pad(order)
    three_u2 = ExactSeries.identity(order, "u")
    g = (three_u2 * 4) * (ExactSeries.one(order, "u") + three_u2 * three_u2 * 3).reciprocal()
    t_of_k = kappa.reversion()
    t_u = t_of_k.compose(g)
    return ExactSeries(t_u.coeffs, var="u")


def zeta_series_via_theta(max_M: int) -> ExactSeries:
    """Zeta series through u^(2 max_M) from the theta closed form.

    Builds t(u), F(t(u)) and (t(u)/u) e^{-F} / (1-u^2) exactly; the result
    must equal zeta_series(max_M) coefficient for coefficient.
    """
    if max_M < 0:
        raise ValueError("max_M must be nonnegative")
    if max_M == 0:
        return ExactSeries.one(0, "u")
    n = 2 * max_M + 1
    t_u = t_series_in_u(n)
    _, F = f_and_F_series(n)
    F_of_t = F.compose(t_u)
    expo = (-F_of_t).exp()
    ratio = t_u.shift_down(1)  # t(u)/u, constant term 1
    z = ratio * expo * _one_minus_u2(n).reciprocal()
    return ExactSeries(z.truncate(2 * max_M).coeffs, var="u")


def geodesic_counts_from_series(max_m: int) -> list[tuple[int, int]]:
    """Counts N_m of based closed non-backtracking tailless walks of length m.

    N_m = m [u^m] log Z with log Z = -log(1-u^2) - trlog; the result must be
    an integer (and zero for odd m), otherwise the series data is corrupt and
    an InvariantError is raised.
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    max_M = (max_m + 1) // 2
    order = 2 * max_M
    log_one_minus_u2 = _one_minus_u2(order).log()
    log_z = -log_one_minus_u2 - trlog_series(max_M)
    out = []
    for m in range(1, max_m + 1):
        c = log_z[m] * m
        if c.denominator != 1:
            raise InvariantError(f"geodesic count N_{m} is not an integer: {c}")
        n_m = int(c)
        if m % 2 == 1 and n_m != 0:
            raise InvariantError(f"odd-length geodesic count N_{m} = {n_m} nonzero")
        out.append((m, n_m))
    return out
