"""Elliptic integral, theta constants, and modulus maps against independent oracles."""

import cmath
import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from gridzeta.errors import (
    BranchCutError,
    BranchPointError,
    DomainError,
    PoleError,
)
from gridzeta.special import (
    agm,
    elliptic_k,
    modulus_from_t,
    modulus_from_u,
    nome_t_from_u,
    theta2_sq,
    theta2_sq_from_series,
    theta3,
    theta3_product,
    theta4,
    theta4_product,
    u_pair_from_modulus,
    u_pair_from_t,
)

SQRT3 = math.sqrt(3.0)


def k_quadrature(k: float) -> float:
    """Independent oracle: direct adaptive quadrature of the defining integral."""
    val, _ = quad(
        lambda w: 1.0 / math.sqrt(1.0 - k * k * math.sin(w) ** 2),
        0.0,
        math.pi / 2,
        epsabs=1e-14,
        epsrel=1e-14,
        limit=300,
    )
    return val


class TestAgm:
    def test_fixed_point_one(self):
        assert agm(1, 1) == 1

    def test_fixed_point_generic(self):
        assert abs(agm(2.5, 2.5) - 2.5) < 1e-15

    def test_agm_against_k_oracle(self):
        # agm(1, k') * K(k) = pi/2 with K from quadrature
        k = 0.6
        kp = math.sqrt(1 - k * k)
        assert abs(agm(1, kp).real * k_quadrature(k) - math.pi / 2) < 1e-12

    def test_agm_half(self):
        # same identity at the (1, 0.5) pair: k = sqrt(0.75)
        k = math.sqrt(0.75)
        assert abs(agm(1, 0.5).real - math.pi / (2 * k_quadrature(k))) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            agm(0, 1)

    def test_rejects_negative_ratio(self):
        with pytest.raises(DomainError):
            agm(1, -2)

    def test_complex_symmetry(self):
        a, b = 1.3 + 0.4j, 0.7 - 0.2j
        assert abs(agm(a, b) - agm(b, a)) < 1e-14


class TestEllipticK:
    def test_at_zero(self):
        assert abs(elliptic_k(0) - math.pi / 2) < 1e-15

    def test_against_quadrature_08(self):
        assert abs(elliptic_k(0.8).real - k_quadrature(0.8)) < 1e-12

    def test_against_quadrature_grid(self):
        for k in np.linspace(-0.99, 0.99, 100):
            val = elliptic_k(complex(k))
            assert abs(val.imag) < 1e-13
            assert abs(val.real - k_quadrature(float(k))) < 1e-12, k

    def test_real_and_at_least_pi_over_2(self):
        for k in (-0.9, -0.3, 0.0, 0.5, 0.95):
            v = elliptic_k(k)
            assert v.real >= math.pi / 2 - 1e-15

    def test_theta_identity_at_half(self):
        # K(k) = (pi/2) theta3^2(q) at the nome of k = 0.5
        from gridzeta.special import _nome_t_from_modulus

        k = 0.5
        t = _nome_t_from_modulus(complex(k))
        q = t * t
        assert abs(elliptic_k(k) - math.pi / 2 * theta3(q) ** 2) < 1e-12

    def test_pole(self):
        with pytest.raises(PoleError):
            elliptic_k(1.0)

    def test_branch_cut(self):
        with pytest.raises(BranchCutError):
            elliptic_k(1.5)
        with pytest.raises(BranchCutError):
            elliptic_k(1.5j * 1j)  # k = -1.5


class TestThetaConstants:
    def test_at_zero(self):
        assert theta3(0) == 1
        assert theta4(0) == 1

    def test_theta3_value(self):
        # 1 + 2q + 2q^4 + 2q^9 at q = 0.1
        expected = 1 + 2e-1 + 2e-4 + 2e-9 + 2e-16
        assert abs(theta3(0.1) - expected) < 1e-15

    def test_series_equals_product(self):
        rng = random.Random(7)
        samples = 0
        while samples < 25:
            q = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            if abs(q) >= 0.65:
                continue
            samples += 1
            assert abs(theta3(q) - theta3_product(q)) < 1e-12
            assert abs(theta4(q) - theta4_product(q)) < 1e-12
            t = cmath.sqrt(q)
            assert abs(theta2_sq(t) - theta2_sq_from_series(t)) < 1e-12

    def test_jacobi_identity(self):
        rng = random.Random(11)
        for _ in range(25):
            q = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if abs(q) > 0.5:
                q *= 0.5 / abs(q)
            t = cmath.sqrt(q)
            lhs = theta2_sq(t) ** 2 + theta4(q) ** 4
            assert abs(lhs - theta3(q) ** 4) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            theta3(1.0)
        with pytest.raises(DomainError):
            theta4(1.2 + 0.1j)

    def test_policy_exhaustion(self):
        from gridzeta.errors import PrecisionError

        # 589 terms are needed here, more than the fixed 256
        with pytest.raises(PrecisionError):
            theta3(0.9999)


class TestTheta2Sq:
    def test_at_zero(self):
        assert theta2_sq(0) == 0

    def test_small_t_ratio(self):
        t = 1e-6
        assert abs(theta2_sq(t) / (4 * t) - 1) < 1e-10

    def test_product_vs_series_forms(self):
        for t in (0.3, -0.25, 0.2 + 0.3j, 0.5, -0.1 - 0.4j):
            assert abs(theta2_sq(t) - theta2_sq_from_series(t)) < 1e-13

    def test_odd_in_t(self):
        t = 0.21 + 0.13j
        assert abs(theta2_sq(-t) + theta2_sq(t)) < 1e-14


class TestModulusMaps:
    def test_modulus_from_u_values(self):
        assert modulus_from_u(0) == 0
        assert abs(modulus_from_u(1 / 3) - 1) < 1e-15
        assert abs(modulus_from_u(1 / SQRT3) - 2 / SQRT3) < 1e-15

    def test_modulus_pole(self):
        with pytest.raises(PoleError):
            modulus_from_u(1j / SQRT3)

    def test_modulus_from_t_small(self):
        t = 1e-6
        assert abs(modulus_from_t(t) / (4 * t) - 1) < 1e-10
        assert modulus_from_t(0) == 0

    def test_modulus_round_trip_through_nome(self):
        # t0 = nome of the small root u0 of 4u/(1+3u^2) = 1/2 recovers k = 1/2
        k = 0.5
        u0 = (2 - math.sqrt(4 - 3 * k * k)) / (3 * k)
        t0 = nome_t_from_u(u0)
        assert abs(modulus_from_t(t0) - k) < 1e-12

    def test_omega_maps_into_cut_plane(self):
        rng = random.Random(3)
        n = 0
        while n < 50:
            u = complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.55, 0.55))
            from gridzeta.regions import is_in_omega

            if not is_in_omega(u):
                continue
            n += 1
            m = modulus_from_u(u) ** 2
            assert not (abs(m.imag) < 1e-12 and m.real >= 1.0)


class TestNome:
    def test_removable_point(self):
        assert nome_t_from_u(0) == 0

    def test_t_over_u_to_one(self):
        u = 1e-5
        assert abs(nome_t_from_u(u) / u - 1) < 1e-4

    def test_round_trip_complex(self):
        u = 0.1 + 0.1j
        resid = abs(modulus_from_t(nome_t_from_u(u)) - modulus_from_u(u))
        assert resid < 1e-12

    def test_round_trip_grid(self):
        rng = random.Random(5)
        from gridzeta.regions import is_in_omega

        n = 0
        while n < 20:
            u = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if not is_in_omega(u) or abs(u) < 1e-3:
                continue
            n += 1
            resid = abs(modulus_from_t(nome_t_from_u(u)) - modulus_from_u(u))
            assert resid < 1e-11, u

    def test_negative_real_u_gives_negative_t(self):
        t = nome_t_from_u(-0.1)
        assert t.real < 0
        assert abs(t.imag) < 1e-15

    def test_outside_omega_rejected(self):
        with pytest.raises(DomainError):
            nome_t_from_u(0.45)  # on the slit [1/3, 1]
        with pytest.raises(DomainError):
            nome_t_from_u(2.0)


class TestUPair:
    def test_vieta_product(self):
        up, um = u_pair_from_t(0.2)
        assert abs(up * um - 1 / 3) < 1e-12

    def test_minus_branch_small(self):
        for t in (1e-3, 1e-2, 0.05):
            _, um = u_pair_from_t(t)
            assert abs(um / t - 1) < 0.1

    def test_reciprocal_pairing(self):
        up, um = u_pair_from_t(0.1 + 0.05j)
        assert abs(up - 1 / (3 * um)) < 1e-12

    def test_inverts_the_nome_map(self):
        # u -> t by the nome, then t -> u by the root pair: the small root
        # recovers u (the two parameterizations of the surface agree)
        for u in (0.1, -0.15, 0.12 + 0.08j):
            _, um = u_pair_from_t(nome_t_from_u(u))
            assert abs(um - u) < 1e-11

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            u_pair_from_t(0)
        with pytest.raises(DomainError):
            u_pair_from_modulus(0)

    def test_wrapper_of_modulus_roots(self):
        t = 0.3 - 0.2j
        assert u_pair_from_t(t) == u_pair_from_modulus(modulus_from_t(t))

    def test_branch_point_guard(self):
        # the branch points k = +-2/sqrt(3) live at complex t; Newton from the
        # principal sheet near the circle finds one, and the guard must trip
        target = 2 / SQRT3
        t = nome_t_from_u(0.575 + 0.02j)
        h = 1e-7
        for _ in range(60):
            f = modulus_from_t(t) - target
            fp = (modulus_from_t(t + h) - modulus_from_t(t - h)) / (2 * h)
            t = t - f / fp
        assert abs(modulus_from_t(t) - target) < 1e-12
        with pytest.raises(BranchPointError):
            u_pair_from_t(t)


class TestModulusFromT:
    def test_series_route_matches_product_ratio(self):
        # modulus_from_t takes theta2^2 from the half-integer series; the
        # product form is the independent route
        for i in range(1, 20):
            for j in range(16):
                t = cmath.rect(min(0.05 * i, 0.95), 2 * math.pi * j / 16)
                expected = theta2_sq(t) / theta3(t * t) ** 2
                assert abs(modulus_from_t(t) - expected) <= 1e-13 * max(1.0, abs(expected))
