"""Exact series data for the lattice zeta function.

Expected coefficients are frozen from two places: low-order values verified
by hand, and cross-checks computed by the independent product-form and
walk-counting oracles in this suite.
"""

from fractions import Fraction
from math import comb

import pytest

from gridzeta.expansions import (
    closed_walk_moment,
    det_series,
    f_and_F_series,
    geodesic_counts_from_series,
    modulus_t_series,
    t_series_in_u,
    theta_product_series,
    theta_series_exact,
    trlog_series,
    zeta_series,
    zeta_series_tail_bound,
    zeta_series_via_theta,
)
from gridzeta.powerseries import ExactSeries

TRLOG_EXPECTED = {2: Fraction(1), 4: Fraction(-3, 2), 6: Fraction(-11, 3),
                  8: Fraction(-107, 4), 10: Fraction(-759, 5), 12: Fraction(-6039, 6)}
DET_EXPECTED = [1, 1, -1, -5, -30, -174, -1120]
ZETA_EXPECTED = [1, 0, 2, 4, 29, 160, 1070, 7192, 50688, 365376, 2695122]


def test_closed_walk_moment_values():
    assert closed_walk_moment(0) == 1
    assert closed_walk_moment(1) == 4
    assert closed_walk_moment(3) == 400
    assert closed_walk_moment(10) == comb(20, 10) ** 2


def test_trlog_series_coefficients():
    s = trlog_series(6)
    assert s[0] == 0
    for exp, val in TRLOG_EXPECTED.items():
        assert s[exp] == val
    assert s.is_even()


def test_det_series_coefficients():
    s = det_series(6)
    assert [s[2 * m] for m in range(7)] == [Fraction(c) for c in DET_EXPECTED]


def test_exp_log_round_trip_on_trlog():
    tl = trlog_series(8)
    assert tl.exp().log().coeffs == tl.coeffs


def test_zeta_series_coefficients():
    s = zeta_series(10)
    assert [s[2 * m] for m in range(11)] == [Fraction(c) for c in ZETA_EXPECTED]
    assert s[2] == 0
    assert all(c.denominator == 1 and c >= 0 for c in s.coeffs)


def test_theta_series_exact_low_coefficients():
    th2, th3, th4 = theta_series_exact(16)
    assert [th3[n] for n in range(5)] == [1, 2, 0, 0, 2]
    assert [th4[n] for n in range(5)] == [1, -2, 0, 0, 2]
    # theta2^2/(4t) = (1 + t^4 + t^12 + ...)^2 = 1 + 2t^4 + t^8 + 2t^12 + ...
    assert [th2[n] for n in (0, 4, 8, 12)] == [1, 2, 1, 2]


def test_theta_sum_equals_product_through_order_32():
    s2, s3, s4 = theta_series_exact(32)
    p2, p3, p4 = theta_product_series(32)
    assert s3.coeffs == p3.coeffs
    assert s4.coeffs == p4.coeffs
    assert s2.coeffs == p2.coeffs


def test_f_and_F_leading_terms():
    # frozen from the product-form expansion of theta3^2 theta4^4
    f, F = f_and_F_series(9)
    assert [f[n] for n in (1, 3, 5, 7)] == [4, 4, -32, 4]
    assert [F[n] for n in (2, 4, 6, 8)] == [Fraction(2), Fraction(1), Fraction(-16, 3), Fraction(1, 2)]
    assert F[0] == 0
    assert f[0] == 0


def test_f_from_product_oracle():
    # independent route: build theta3^2 theta4^4 from the *product* series
    order = 20
    _, p3, p4 = theta_product_series(order // 2)
    prod_q = p3 * p3 * p4 * p4 * p4 * p4
    prod_t = prod_q.dilate(2).pad(order)
    f_oracle = (ExactSeries.one(order, "t") - prod_t).shift_down(1)
    F_oracle = f_oracle.integral(0)
    f, F = f_and_F_series(order)
    assert f.coeffs[: f_oracle.order + 1] == f_oracle.coeffs[: f.order + 1]
    assert F.coeffs == F_oracle.truncate(F.order).coeffs


def test_F_differentiates_to_f():
    f, F = f_and_F_series(24)
    assert F.derivative().coeffs == f.coeffs[: F.order]
    assert F.is_even()
    assert f.is_odd()


def test_modulus_t_series_leading():
    k = modulus_t_series(9)
    assert [k[n] for n in (1, 3, 5, 7, 9)] == [4, -16, 56, -160, 404]
    assert k.is_odd()


def test_t_series_in_u():
    t = t_series_in_u(15)
    assert t[0] == 0
    assert t[1] == 1
    assert [t[n] for n in (3, 5, 7, 9, 11, 13, 15)] == [1, 7, 39, 270, 1902, 14110, 107182]
    assert t.is_odd()


def test_t_series_solves_modulus_relation():
    order = 17
    t = t_series_in_u(order)
    kappa = modulus_t_series(order)
    lhs = kappa.compose(t)
    u = ExactSeries.identity(order, "u")
    rhs = (u * 4) * (ExactSeries.one(order, "u") + u * u * 3).reciprocal()
    assert lhs.coeffs == rhs.coeffs


def test_t_series_matches_numeric_nome():
    from gridzeta.special import nome_t_from_u

    t = t_series_in_u(33)
    for u in (0.05, 0.1, -0.12):
        assert abs(t.evaluate(u) - nome_t_from_u(u)) < 1e-13


def test_zeta_series_via_theta_equals_direct():
    assert zeta_series_via_theta(10).coeffs == zeta_series(10).coeffs


def test_zeta_via_theta_constant_and_u2():
    z = zeta_series_via_theta(3)
    assert z[0] == 1
    assert z[2] == 0


def test_geodesic_counts():
    counts = dict(geodesic_counts_from_series(28))
    assert counts[2] == 0
    assert counts[4] == 8
    assert counts[6] == 24
    assert counts[8] == 216
    assert all(counts[m] == 0 for m in range(1, 28, 2))
    # integrality is enforced internally; evenness of each count:
    assert all(counts[m] % 2 == 0 for m in range(2, 29, 2))


def test_geodesic_counts_bad_input():
    with pytest.raises(ValueError):
        geodesic_counts_from_series(0)


def test_series_json_interface():
    z = zeta_series(3)
    text = z.to_json()
    assert '"var": "u"' in text
    assert ExactSeries.from_json(text) == z


@pytest.mark.parametrize("order,r", [(0, 0.1), (4, 0.2), (10, 0.3), (20, 0.32)])
def test_zeta_tail_bound_covers_the_exact_tail(order, r):
    # the exact coefficients through u^80 give a lower bound of the true tail
    z = zeta_series(40)
    seen = sum(float(z[j]) * r**j for j in range(order + 1, 81))
    assert 0 < seen <= zeta_series_tail_bound(order, r)


def test_zeta_tail_bound_edges():
    assert zeta_series_tail_bound(10, 0.0) == 0.0
    assert zeta_series_tail_bound(4, 1 / 3) == float("inf")
