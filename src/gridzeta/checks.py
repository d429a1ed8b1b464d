"""Self-contained invariant battery behind the `check` command.

Each check is small enough to run in seconds and compares two independent
routes to the same quantity.  `run_all_checks(fault=...)` can corrupt one
coefficient on purpose, to demonstrate that the battery actually detects
faults rather than vacuously passing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expansions, oracles, special, surface
from .powerseries import ExactSeries
from .finite_graphs import (
    finite_functional_equation_residual,
    ihara_zeta_finite,
    torus_graph,
    torus_zeta_eigenroute,
)

__all__ = ["CheckResult", "run_all_checks", "FAULT_MODES"]

FAULT_MODES = ("zeta-coefficient",)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _elliptic_k_quadrature(k: float) -> float:
    from scipy.integrate import quad

    val, _ = quad(
        lambda w: 1.0 / math.sqrt(1.0 - (k * k) * math.sin(w) ** 2),
        0.0,
        math.pi / 2,
        epsabs=1e-14,
        epsrel=1e-14,
        limit=200,
    )
    return val


def run_all_checks(fault: str | None = None) -> list[CheckResult]:
    if fault is not None and fault not in FAULT_MODES:
        raise ValueError(f"unknown fault mode {fault!r}")
    results: list[CheckResult] = []

    def record(name: str, worst: float, tol: float):
        results.append(
            CheckResult(name, bool(worst <= tol), f"worst {worst:.3e} vs tol {tol:.0e}")
        )

    # elliptic K against direct quadrature
    worst = max(
        abs(special.elliptic_k(k).real - _elliptic_k_quadrature(k))
        for k in np.linspace(-0.95, 0.95, 21)
    )
    record("elliptic_k vs quadrature", worst, 1e-12)

    # K = (pi/2) theta3(q)^2 at the matching nome
    worst = 0.0
    for k in (0.1, 0.35, 0.5, 0.2 + 0.3j, -0.4 + 0.1j):
        t = special._nome_t_from_modulus(complex(k))
        worst = max(
            worst,
            abs(special.elliptic_k(k) - math.pi / 2 * special.theta3(t * t) ** 2),
        )
    record("K = (pi/2) theta3^2", worst, 1e-10)

    # four-square theta identity
    worst = 0.0
    for q in (0.05, 0.2, 0.45, 0.1 + 0.2j, -0.3 + 0.1j):
        t = cmath.sqrt(q)
        lhs = special.theta2_sq(t) ** 2 + special.theta4(q) ** 4
        worst = max(worst, abs(lhs - special.theta3(q) ** 4))
    record("theta2^4 + theta4^4 = theta3^4", worst, 1e-12)

    # series vs product forms
    worst = 0.0
    for q in (0.1, -0.25, 0.3 + 0.2j, 0.55):
        worst = max(worst, abs(special.theta3(q) - special.theta3_product(q)))
        worst = max(worst, abs(special.theta4(q) - special.theta4_product(q)))
        t = cmath.sqrt(q)
        worst = max(worst, abs(special.theta2_sq(t) - special.theta2_sq_from_series(t)))
    record("theta series = theta product", worst, 1e-12)

    # mean-of-log identity
    worst = max(oracles.zint_identity_residual(z) for z in (-0.9, -0.5, 0.0, 0.5, 0.9))
    record("mean-of-log identity", worst, 1e-10)

    # exact series coefficients and the theta-route identity
    z6 = expansions.zeta_series(6)
    expected = [1, 0, 2, 4, 29, 160, 1070]
    ok = [z6[2 * m] for m in range(7)] == [Fraction(c) for c in expected]
    results.append(CheckResult("zeta series coefficients", ok, "u^0..u^12"))

    via = expansions.zeta_series_via_theta(6)
    direct = expansions.zeta_series(6)
    if fault == "zeta-coefficient":
        bad = list(direct.coeffs)
        bad[8] += 1
        direct = ExactSeries(bad, var="u")
    results.append(
        CheckResult(
            "zeta series = theta route (exact)",
            via.coeffs == direct.coeffs,
            "coefficient-for-coefficient through u^12"
            + (" [fault injected]" if fault == "zeta-coefficient" else ""),
        )
    )

    # numeric route agreement
    worst = 0.0
    for u in (0.1, -0.2, 0.25j, 0.15 + 0.2j, -0.1 - 0.3j):
        zt = surface.zeta_tilde(surface.lift_principal(u))
        zq = oracles.zeta_via_quadrature(u)
        worst = max(worst, abs(zt - zq) / abs(zt))
    record("theta route = quadrature route", worst, 1e-8)

    # functional equation, principal and one deck-transformed sheet
    points = [surface.lift_principal(u) for u in (0.1, -0.15, 0.1 + 0.2j, 0.3j)]
    points.append(
        surface.deck_transform(surface.lift_principal(0.15), surface.DeckWord.from_letters((2,)))
    )
    worst = max(surface.functional_equation_residual(s) for s in points)
    record("surface functional equation", worst, 1e-10)

    # finite-graph functional equation and eigenvalue cross-route
    worst = 0.0
    for g in (torus_graph(3, 3), torus_graph(4, 4)):
        for u in (0.1, 0.05 + 0.1j, -0.2 + 0.07j):
            worst = max(worst, finite_functional_equation_residual(g, u))
    record("finite functional equation", worst, 1e-8)

    worst = 0.0
    g44 = torus_graph(4, 4)
    for u in (0.1, 0.07 - 0.05j, 0.2j):
        z1 = ihara_zeta_finite(g44, u)
        z2 = torus_zeta_eigenroute(g44, u)
        worst = max(worst, abs(z1 - z2) / abs(z1))
    record("torus determinant = eigenvalue product", worst, 1e-10)

    # exact counting identities
    ok = all(
        oracles.closed_walk_count_dp(k) == expansions.closed_walk_moment(k)
        for k in range(9)
    )
    results.append(CheckResult("closed walks = binomial^2", ok, "k <= 8"))

    series_counts = dict(expansions.geodesic_counts_from_series(10))
    ok = all(oracles.geodesic_count_dp(m) == series_counts[m] for m in (4, 6, 8, 10))
    results.append(CheckResult("geodesic DP = series counts", ok, "m <= 10"))

    # deck generator arithmetic
    ok = True
    for mgen in surface.DECK_GENERATORS.values():
        (a, b), (c, d) = mgen
        ok = ok and a * d - b * c == 1 and a % 2 == 1 and d % 2 == 1
        ok = ok and b % 2 == 0 and c % 2 == 0 and b % 4 == 0
    results.append(CheckResult("deck generator conditions", ok, "det, mod 2, mod 4"))

    # two-root product
    worst = 0.0
    for t in (0.1, 0.2, 0.1 + 0.05j, -0.15 + 0.1j, 0.3):
        up, um = special.u_pair_from_t(t)
        worst = max(worst, abs(up * um - 1.0 / 3.0))
    record("u_plus u_minus = 1/3", worst, 1e-12)

    return results
