"""Quadrature and walk-counting oracles, and their mutual agreement."""

import math
import random
from math import comb

import pytest

from gridzeta.errors import DomainError, PrecisionError
from gridzeta.expansions import geodesic_counts_from_series, trlog_series
from gridzeta.oracles import (
    QuadratureSpec,
    closed_walk_count_dp,
    geodesic_count_dp,
    log_det_1d_quadrature,
    log_det_torus_quadrature,
    log_det_torus_trapezoid,
    primitive_class_count,
    zeta_via_quadrature,
    zint_identity_residual,
)


class TestTorusQuadrature:
    def test_zero(self):
        assert log_det_torus_quadrature(0) == 0

    def test_matches_series_partial_sum(self):
        u = 0.1
        tl = trlog_series(16)
        assert abs(log_det_torus_quadrature(u) - tl.evaluate(u)) < 1e-12

    def test_matches_closed_form_complex(self):
        from gridzeta.special import nome_t_from_u
        from gridzeta.surface import F_eval
        import cmath

        u = 0.1 + 0.1j
        t = nome_t_from_u(u)
        closed = cmath.log(u / t) + F_eval(t)
        assert abs(log_det_torus_quadrature(u) - closed) < 1e-8

    def test_outside_omega_rejected(self):
        with pytest.raises(DomainError):
            log_det_torus_quadrature(0.5)

    def test_trapezoid_secondary_route(self):
        for u in (0.1, 0.25, -0.2):
            assert abs(log_det_torus_quadrature(u) - log_det_torus_trapezoid(u, 256)) < 1e-12

    def test_refinement_monotonicity(self):
        # halving tolerances moves the result by less than the prior tolerance
        u = 0.2 + 0.1j
        tol = 1e-6
        prev = log_det_torus_quadrature(u, QuadratureSpec(abs_tol=tol, rel_tol=tol))
        for _ in range(4):
            tol /= 2
            cur = log_det_torus_quadrature(u, QuadratureSpec(abs_tol=tol, rel_tol=tol))
            assert abs(cur - prev) <= 2 * tol
            prev = cur

    def test_node_budget_refuses_deep_refinement(self):
        # without the budget this spec ran for more than 300 s at 3e-5 from the circle
        import time

        start = time.perf_counter()
        with pytest.raises(PrecisionError, match="budget"):
            zeta_via_quadrature(0.57732j, QuadratureSpec(max_subdivisions=16))
        assert time.perf_counter() - start < 30


class TestReducedQuadrature:
    def test_zero(self):
        assert log_det_1d_quadrature(0) == 0

    def test_agrees_with_torus_route(self):
        assert abs(log_det_1d_quadrature(0.2) - log_det_torus_quadrature(0.2)) < 1e-9

    def test_agrees_complex(self):
        u = 0.15 + 0.2j
        assert abs(log_det_1d_quadrature(u) - log_det_torus_quadrature(u)) < 1e-9

    def test_real_on_real_segment(self):
        v = log_det_1d_quadrature(0.25)
        assert abs(v.imag) < 1e-13

    @pytest.mark.parametrize("u", [0.57j, 0.577j])
    def test_agrees_near_the_imaginary_slit(self, u):
        # |integral| is 6 to 11 here, so only a relative error bound accepts it
        assert abs(log_det_1d_quadrature(u) - log_det_torus_quadrature(u)) < 1e-10


class TestZintIdentity:
    def test_zero(self):
        assert zint_identity_residual(0.0) == 0.0

    def test_half(self):
        assert zint_identity_residual(0.5) < 1e-11

    def test_near_edge(self):
        assert zint_identity_residual(-0.9) < 1e-10

    def test_sweep(self):
        for z in [x / 10 for x in range(-9, 10)]:
            assert zint_identity_residual(z) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            zint_identity_residual(1.0)


class TestClosedWalks:
    def test_trivial(self):
        assert closed_walk_count_dp(0) == 1

    def test_small_values(self):
        assert closed_walk_count_dp(1) == 4
        assert closed_walk_count_dp(2) == 36

    def test_binomial_identity(self):
        for k in range(13):
            assert closed_walk_count_dp(k) == comb(2 * k, k) ** 2


class TestGeodesicCounts:
    def test_odd_lengths_vanish(self):
        assert geodesic_count_dp(3) == 0
        assert geodesic_count_dp(7) == 0

    def test_square_by_hand(self):
        assert geodesic_count_dp(4) == 8

    def test_length_eight(self):
        assert geodesic_count_dp(8) == 216

    def test_dp_equals_series(self):
        series = dict(geodesic_counts_from_series(14))
        for m in range(2, 15, 2):
            assert geodesic_count_dp(m) == series[m], m


class TestPrimitiveClasses:
    def test_squares(self):
        assert primitive_class_count(4, oriented=True) == 2
        assert primitive_class_count(4, oriented=False) == 1

    def test_rectangles(self):
        assert primitive_class_count(6, oriented=True) == 4

    def test_length_eight(self):
        assert primitive_class_count(8, oriented=True) == 26

    def test_divisor_sum_identity(self):
        series = dict(geodesic_counts_from_series(12))
        classes = {m: primitive_class_count(m, oriented=True) for m in range(1, 13)}
        for m in range(1, 13):
            total = sum(l * classes[l] for l in range(1, m + 1) if m % l == 0)
            assert total == series[m], m

    def test_unoriented_at_most_oriented(self):
        for m in (4, 6, 8):
            assert primitive_class_count(m, False) <= primitive_class_count(m, True)


class TestZetaViaQuadrature:
    def test_at_zero(self):
        assert zeta_via_quadrature(0) == 1

    def test_matches_series(self):
        from gridzeta.expansions import zeta_series

        z = zeta_series(20)
        assert abs(zeta_via_quadrature(0.05) - z.evaluate(0.05)) < 1e-12

    def test_matches_surface_route(self):
        from gridzeta.surface import lift_principal, zeta_tilde

        u = 0.25
        assert abs(zeta_via_quadrature(u) - zeta_tilde(lift_principal(u))) < 1e-8

    def test_route_agreement_across_omega(self):
        from gridzeta.regions import is_in_omega
        from gridzeta.surface import lift_principal, zeta_tilde

        rng = random.Random(17)
        n = 0
        while n < 25:
            u = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if not is_in_omega(u) or abs(u) < 0.02:
                continue
            if abs(u.imag) < 0.04 and abs(u.real) > 0.30:
                continue  # keep clear of the slits
            n += 1
            zq = zeta_via_quadrature(u)
            zt = zeta_tilde(lift_principal(u))
            assert abs(zq - zt) / abs(zt) < 1e-8, u
