"""Surface points, region classification, sheets, and the extended zeta."""

import cmath
import math
import random

import numpy as np
import pytest

from gridzeta import special, surface
from gridzeta.errors import DomainError, PrecisionError
from gridzeta.regions import RegionTag, classify_u, is_in_omega
from gridzeta.special import modulus_from_t, modulus_from_u, u_pair_from_t
from gridzeta.surface import (
    DECK_GENERATORS,
    F_SERIES_ORDER,
    T_CAP,
    DeckWord,
    F_eval,
    SurfacePoint,
    deck_transform,
    functional_equation_residual,
    involution,
    lift_principal,
    zeta_tilde,
)

SQRT3 = math.sqrt(3.0)

# |t| from 0.05 to just under the 0.95 cap, at 16 angles
T_RING = [
    cmath.rect(min(0.05 * i, T_CAP * (1 - 1e-12)), 2 * math.pi * j / 16)
    for i in range(1, 20)
    for j in range(16)
]


class TestClassify:
    def test_origin(self):
        assert classify_u(0) is RegionTag.IN_OMEGA

    def test_slit(self):
        assert classify_u(0.5) is RegionTag.ON_D

    def test_outside(self):
        assert classify_u(2) is RegionTag.OUTSIDE_OMEGA_IN_Y
        assert classify_u(0.5 + 0.5j) is RegionTag.OUTSIDE_OMEGA_IN_Y

    def test_circle(self):
        assert classify_u(cmath.exp(0.7j) / SQRT3) is RegionTag.ON_D

    def test_excluded_points(self):
        for p in (1 / 3, -1 / 3, 1.0, -1.0, 1 / SQRT3, 1j / SQRT3):
            assert classify_u(p) is RegionTag.EXCLUDED_POINT

    def test_interior_points(self):
        assert classify_u(0.3j) is RegionTag.IN_OMEGA
        assert classify_u(-0.2 + 0.1j) is RegionTag.IN_OMEGA


class TestSurfacePoint:
    def test_origin_allowed(self):
        s = SurfacePoint(0, 0)
        assert s.is_origin

    def test_relation_enforced(self):
        with pytest.raises(DomainError):
            SurfacePoint(0.1, 0.2)

    def test_t_disk_enforced(self):
        with pytest.raises(DomainError):
            SurfacePoint(0.1, 1.5)

    def test_json_round_trip(self):
        s = lift_principal(0.1 + 0.05j)
        data = s.to_json_dict()
        assert set(data) == {"u", "t"}
        back = SurfacePoint.from_json_dict(data)
        assert back == s

    def test_cached_modulus_left_out_of_identity(self):
        s = lift_principal(0.1 + 0.05j)
        assert abs(s.k - modulus_from_t(s.t)) < 1e-15
        fresh = SurfacePoint(s.u, s.t)
        assert fresh == s and hash(fresh) == hash(s)
        assert repr(fresh) == repr(s) and "k=" not in repr(s)
        data = s.to_json_dict()
        assert set(data) == {"u", "t"}
        back = SurfacePoint.from_json_dict(data)
        assert back == s and hash(back) == hash(s)

    def test_relation_tolerance_scales_with_k(self):
        # |k| ~ 2.2e4 here, so the residual 5.9e-10 is rounding, not a wrong point
        from gridzeta.oracles import log_det_1d_quadrature

        u = 0.57732j
        z = zeta_tilde(lift_principal(u))
        expected = cmath.exp(-log_det_1d_quadrature(u)) / (1 - u * u)
        assert abs(z - expected) <= 1e-10 * abs(expected)

    def test_both_roots_accepted_at_large_k(self):
        t = -0.10521999350355482 + 0.82761477123859j
        for u in u_pair_from_t(t):
            assert SurfacePoint(u, t).t == t

    def test_branch_point_rejected(self):
        # a point satisfying the modulus relation but sitting at k = 2/sqrt(3)
        t = 0.3862533732622359 + 0.26186761525016167j
        assert abs(modulus_from_t(t) - 2 / SQRT3) < 1e-12
        with pytest.raises(DomainError):
            SurfacePoint(1 / SQRT3, t)


class TestLift:
    def test_lift_origin(self):
        assert lift_principal(0) is not None
        assert lift_principal(0).t == 0

    def test_lift_small_real(self):
        s = lift_principal(0.1)
        assert abs(s.t.imag) < 1e-15
        assert 0 < s.t.real < 0.11
        # t = u + u^3 + O(u^5)
        assert abs(s.t.real - (0.1 + 0.1 ** 3)) < 1e-4

    def test_relation_residual(self):
        s = lift_principal(0.2 + 0.1j)
        assert abs(modulus_from_u(s.u) - modulus_from_t(s.t)) < 1e-10

    def test_outside_omega(self):
        with pytest.raises(DomainError):
            lift_principal(0.9)


class TestInvolution:
    def test_involutive(self):
        s = lift_principal(0.1)
        ss = involution(involution(s))
        assert abs(ss.u - s.u) < 1e-14
        assert abs(ss.t - s.t) < 1e-14

    def test_u_component(self):
        s = involution(lift_principal(0.1))
        assert abs(s.u - 10 / 3) < 1e-14

    def test_preserves_relation(self):
        u = 0.1
        assert abs(modulus_from_u(u) - modulus_from_u(1 / (3 * u))) < 1e-15

    def test_undefined_at_origin(self):
        with pytest.raises(DomainError):
            involution(SurfacePoint(0, 0))


class TestDeckTransforms:
    def test_generator_arithmetic(self):
        for mat in DECK_GENERATORS.values():
            (a, b), (c, d) = mat
            assert a * d - b * c == 1
            assert a % 2 == 1 and d % 2 == 1 and b % 2 == 0 and c % 2 == 0
            assert b % 4 == 0

    def test_identity_word(self):
        s = lift_principal(0.15)
        assert deck_transform(s, DeckWord()) == s

    def test_word_reduction(self):
        w = DeckWord.from_letters((2, -2, 1))
        assert w.syllables == ((1, 1),)
        assert str(DeckWord.from_letters((2, 2, -1))) == "g2^2*g1^-1"

    def test_modulus_preserved(self):
        s = lift_principal(0.15)
        for idx in (1, 2, 3):
            s2 = deck_transform(s, DeckWord.from_letters((idx,)))
            assert abs(modulus_from_t(s2.t) - modulus_from_t(s.t)) < 1e-10
            assert s2.u == s.u

    def test_distinct_sheets(self):
        s = lift_principal(0.15)
        seen = []
        words = [(), (2,), (-2,), (3,), (-3,), (2, 2), (-2, -2)]
        for letters in words:
            try:
                s2 = deck_transform(s, DeckWord.from_letters(letters))
            except PrecisionError:
                continue
            if all(abs(s2.t - t) > 1e-8 for t in seen):
                seen.append(s2.t)
        assert len(seen) >= 5

    def test_shift_by_four_fixes_t(self):
        # tau -> tau + 4 multiplies t by exp(2 pi i): the same sheet
        s = lift_principal(0.2 + 0.1j)
        s2 = deck_transform(s, DeckWord.from_letters((1,)))
        assert abs(s2.t - s.t) < 1e-12

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            deck_transform(SurfacePoint(0, 0), DeckWord.from_letters((2,)))

    def test_result_carries_its_modulus(self):
        s2 = deck_transform(lift_principal(0.15), DeckWord.from_letters((2,)))
        assert s2.k == modulus_from_t(s2.t)
        assert s2 == SurfacePoint(s2.u, s2.t)


class TestOneModulusPerPoint:
    @pytest.fixture
    def calls(self, monkeypatch):
        log = []
        original = special.modulus_from_t

        def counting(t, *args, **kwargs):
            log.append(t)
            return original(t, *args, **kwargs)

        monkeypatch.setattr(special, "modulus_from_t", counting)
        monkeypatch.setattr(surface, "modulus_from_t", counting)
        return log

    def test_lift_principal(self, calls):
        lift_principal(0.2 + 0.1j)
        assert len(calls) == 1

    def test_deck_transform(self, calls):
        base = lift_principal(0.15)
        del calls[:]
        deck_transform(base, DeckWord.from_letters((-2,)))
        assert len(calls) == 1


class TestFEval:
    def test_at_zero(self):
        assert F_eval(0) == 0

    def test_real_on_real_segment(self):
        for t in (0.1, 0.3, 0.49):
            assert abs(F_eval(t).imag) < 1e-15
            assert F_eval(t).real > 0

    def test_conjugation_symmetry(self):
        t = 0.3 + 0.2j
        assert abs(F_eval(t.conjugate()) - F_eval(t).conjugate()) < 1e-14

    def test_derivative_matches_theta_form(self):
        from gridzeta.special import theta3, theta4

        t = 0.1
        h = 1e-5
        fd = (F_eval(t + h) - F_eval(t - h)) / (2 * h)
        q = t * t
        direct = (1 - theta3(q) ** 2 * theta4(q) ** 4) / t
        assert abs(fd - direct) < 1e-10

    def test_cap(self):
        with pytest.raises(PrecisionError):
            F_eval(0.97)

    def test_integer_coefficients_equal_exact_series(self):
        from gridzeta.expansions import f_and_F_series

        _, F = f_and_F_series(F_SERIES_ORDER)
        coeffs, _ = surface._F_even_coeffs(F_SERIES_ORDER)
        assert np.array_equal(np.array(coeffs), np.array(F.float_coeffs()[0::2]))

    def test_truncated_sum_matches_full_sum(self):
        coeffs, _ = surface._F_even_coeffs(F_SERIES_ORDER)
        for t in T_RING:
            w = t * t
            full = 0j
            for c in reversed(coeffs):
                full = full * w + c
            assert abs(F_eval(t) - full) <= 1e-14 * max(1.0, abs(full))


class TestZetaPrincipal:
    def test_matches_zeta_tilde_inside(self):
        from gridzeta.surface import zeta_principal

        for u in (0.1, -0.2, 0.15 + 0.2j):
            assert abs(zeta_principal(u) - zeta_tilde(lift_principal(u))) < 1e-13

    def test_defined_outside_for_plotting(self):
        from gridzeta.surface import zeta_principal

        z = zeta_principal(2.0 + 0.5j)
        assert abs(z) > 0
        assert z == z  # finite, not NaN


class TestZetaTilde:
    def test_normalization(self):
        assert zeta_tilde(SurfacePoint(0, 0)) == 1

    def test_matches_quadrature(self):
        import cmath

        from gridzeta.oracles import log_det_torus_quadrature

        u = 0.1
        expected = 1.0 / ((1 - u * u) * cmath.exp(log_det_torus_quadrature(u)))
        assert abs(zeta_tilde(lift_principal(u)) - expected) < 1e-8

    def test_matches_series_partial_sum(self):
        from gridzeta.expansions import zeta_series

        u = 0.2
        z = zeta_series(24)
        assert abs(zeta_tilde(lift_principal(u)) - z.evaluate(u)) < 1e-10

    def test_never_zero_on_samples(self):
        rng = random.Random(23)
        n = 0
        while n < 20:
            u = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if not is_in_omega(u):
                continue
            n += 1
            assert abs(zeta_tilde(lift_principal(u))) > 0

    def test_conjugation_symmetry(self):
        u = 0.2 + 0.15j
        z1 = zeta_tilde(lift_principal(u.conjugate()))
        z2 = zeta_tilde(lift_principal(u)).conjugate()
        assert abs(z1 - z2) < 1e-12

    def test_evenness(self):
        rng = random.Random(29)
        n = 0
        while n < 20:
            u = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if not is_in_omega(u) or not is_in_omega(-u):
                continue
            n += 1
            z1 = zeta_tilde(lift_principal(-u))
            z2 = zeta_tilde(lift_principal(u))
            assert abs(z1 - z2) < 1e-11 * max(1.0, abs(z2))


class TestConcurrency:
    def test_parallel_zeta_evaluations_match_serial(self):
        # all operations are pure; unrestricted concurrent use must agree
        # with serial results (the series table behind F is built once)
        from concurrent.futures import ThreadPoolExecutor

        us = [complex(0.05 * j, 0.03 * (j % 5)) for j in range(1, 9)]
        serial = [zeta_tilde(lift_principal(u)) for u in us]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda u: zeta_tilde(lift_principal(u)), us))
        assert serial == parallel


class TestFunctionalEquation:
    def test_principal_real(self):
        assert functional_equation_residual(lift_principal(0.1)) < 1e-10

    def test_principal_complex(self):
        assert functional_equation_residual(lift_principal(0.15 + 0.1j)) < 1e-10

    def test_involution_consistency(self):
        s = lift_principal(0.12)
        ss = involution(involution(s))
        assert abs(zeta_tilde(ss) - zeta_tilde(s)) < 1e-14

    def test_on_sampled_points_and_sheets(self):
        rng = random.Random(31)
        points = []
        while len(points) < 16:
            u = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
            if not is_in_omega(u) or abs(u) < 0.05:
                continue
            points.append(lift_principal(u))
        base = lift_principal(0.15)
        for letters in ((2,), (-2,), (3,), (-3,)):
            try:
                points.append(deck_transform(base, DeckWord.from_letters(letters)))
            except PrecisionError:
                pass
        assert len(points) >= 20
        for s in points:
            assert functional_equation_residual(s) < 1e-10
