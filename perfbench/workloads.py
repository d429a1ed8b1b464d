"""The four workloads: inputs from a seed, the timed op, and its checks.

A workload hands out its inputs in rounds.  A round has a fixed make-up
(strata, counts, orders, sizes); the seed draws the points inside it and
shuffles its order.  A run always finishes the round it is in, so every run
sees the same mix of op kinds whatever its length.

`run_op(gz, spec)` is the timed call into gridzeta.  `check(gz, spec,
result)` runs untimed afterwards and returns a list of failures; it may call
gridzeta again (for instance to evaluate Z at -u), but every reference it
compares with comes from `references`, not from the program.

Inputs are drawn with the stdlib `random` module only: importing numpy here
would move part of `import gridzeta` out of the measured set-up.
"""

from __future__ import annotations

import cmath
import math
import random
from math import comb

from references import (
    OMEGA_RADIUS,
    LatticeSeries,
    distance_to_D,
    grid_log_zeta_slogdet,
    series_log,
    zeta_mpmath,
)


def _close(a: complex, b: complex, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(b), 1e-300)


def sample_omega(rng: random.Random, d_lo: float, d_hi: float, sector=(0, 1)) -> complex:
    """A point uniform by area in {u in Omega : d_lo <= dist(u, D) < d_hi},
    with its argument restricted to sector j of n equal sectors."""
    j, n = sector
    while True:
        r = OMEGA_RADIUS * math.sqrt(rng.random())
        u = cmath.rect(r, 2.0 * math.pi * (j + rng.random()) / n)
        if r < OMEGA_RADIUS and d_lo <= distance_to_D(u) < d_hi:
            return u


class Workload:
    name = ""
    tail_percentile = 100.0
    # the reference kernel (speed.py) bound by the same resource as the ops
    speed_kernel = "interpreter"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def prepare(self, gz) -> None:
        """Program-side objects the ops need, built after `import gridzeta`."""

    def next_round(self) -> list:
        raise NotImplementedError

    def run_op(self, gz, spec):
        raise NotImplementedError

    def check(self, gz, spec, result) -> list[str]:
        raise NotImplementedError


# -- theta route over sheets -----------------------------------------------------


def reduced_words(depth: int):
    """Reduced words in the letters +-1, +-2, +-3 of length 1..depth."""
    words, frontier = [], [()]
    for _ in range(depth):
        frontier = [w + (x,) for w in frontier for x in (1, -1, 2, -2, 3, -3) if not (w and w[-1] == -x)]
        words.extend(frontier)
    return words


class ThetaSheets(Workload):
    """Z on the principal lift of u and on every sheet reached by a reduced
    deck word of length <= DEPTH.  Words whose image passes the |t| <= 0.95
    cap raise PrecisionError and are skipped, as `gridzeta sheets` skips them."""

    name = "theta_sheets"
    tail_percentile = 95.0  # p99 (~20 samples beyond) spread 0.05 to 0.14 between sets of runs
    DEPTH = 2
    UNIFORM, NEAR_D = 32, 8  # per round; NEAR_D points lie within NEAR_D_DIST of D
    NEAR_D_DIST = (0.001, 0.02)
    MIN_DIST = 0.001

    def prepare(self, gz):
        self.words = [gz.surface.DeckWord.from_letters(w) for w in reduced_words(self.DEPTH)]

    def warmup_spec(self):
        return {"u": complex(0.1, 0.05), "mpmath": False}

    def next_round(self):
        rng = self.rng
        us = [sample_omega(rng, self.MIN_DIST, 1.0) for _ in range(self.UNIFORM)]
        us += [sample_omega(rng, *self.NEAR_D_DIST) for _ in range(self.NEAR_D)]
        rng.shuffle(us)
        pick = rng.randrange(len(us))
        return [{"u": u, "mpmath": i == pick} for i, u in enumerate(us)]

    def run_op(self, gz, spec):
        surface = gz.surface
        base = surface.lift_principal(spec["u"])
        values = [(base, surface.zeta_tilde(base))]
        for word in self.words:
            try:
                sigma = surface.deck_transform(base, word)
                values.append((sigma, surface.zeta_tilde(sigma)))
            except gz.errors.PrecisionError:
                continue
        return values

    def check(self, gz, spec, values):
        u = spec["u"]
        surface = gz.surface
        z0 = values[0][1]
        bad = []
        if spec["mpmath"] and not _close(z0, zeta_mpmath(u), 1e-12):
            bad.append(f"principal value differs from the mpmath integral at u={u}")
        if not _close(surface.zeta_tilde(surface.lift_principal(u.conjugate())), z0.conjugate(), 1e-12):
            bad.append(f"Z(conj u) != conj Z(u) at u={u}")
        if not _close(surface.zeta_tilde(surface.lift_principal(-u)), z0, 1e-12):
            bad.append(f"Z(-u) != Z(u) at u={u}")
        factor = 27.0 * u**4 * (1.0 - u * u) / (9.0 * u * u - 1.0)
        distinct = []
        for sigma, z in values:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                bad.append(f"non-finite sheet value at u={u}")
                continue
            z_inv = surface.zeta_tilde(surface.SurfacePoint(1.0 / (3.0 * u), sigma.t))
            if not _close(z_inv, factor * z, 1e-9):
                bad.append(f"functional equation fails at u={u}, t={sigma.t}")
            if all(abs(z - w) > 1e-8 * max(1.0, abs(w)) for w in distinct):
                distinct.append(z)
        if len(distinct) < 2:
            bad.append(f"only {len(distinct)} distinct value over u={u} at depth {self.DEPTH}")
        return bad


# -- torus quadrature --------------------------------------------------------------


class TorusQuadrature(Workload):
    """One zeta_via_quadrature(u) per op, u stratified by distance to D.
    Inside a stratum the argument of u is stratified too (one point per
    sector), so every round meets the slit sides and the circle alike."""

    name = "torus_quadrature"
    tail_percentile = 98.0
    # (distance to D from, to), sectors, points per sector, per round
    STRATA = (((0.15, 1.0), 12, 3), ((0.08, 0.15), 12, 1), ((0.05, 0.08), 4, 1))

    def warmup_spec(self):
        # Nearer D than any timed op: its 32 MB node array sets the memory
        # peak in every run, where the few timed ops that reach 16 MB would
        # set it only in some.
        return {"u": complex(0.52, 0.025), "mpmath": False}

    def next_round(self):
        rng = self.rng
        us = [
            sample_omega(rng, lo, hi, (j, sectors))
            for (lo, hi), sectors, per in self.STRATA
            for j in range(sectors)
            for _ in range(per)
        ]
        rng.shuffle(us)
        pick = rng.randrange(len(us))
        return [{"u": u, "mpmath": i == pick} for i, u in enumerate(us)]

    def run_op(self, gz, spec):
        return gz.oracles.zeta_via_quadrature(spec["u"])

    def check(self, gz, spec, z):
        u = spec["u"]
        bad = []
        tol = gz.oracles.DEFAULT_QUADRATURE.abs_tol  # on the log-determinant
        z_theta = gz.surface.zeta_tilde(gz.surface.lift_principal(u))
        if not _close(z, z_theta, tol):
            bad.append(f"quadrature and theta route differ by {abs(z - z_theta) / abs(z_theta):.2e} at u={u}")
        if spec["mpmath"] and not _close(z, zeta_mpmath(u), tol):
            bad.append(f"quadrature differs from the mpmath integral at u={u}")
        return bad


# -- exact series and walk oracles ----------------------------------------------------


class ExactSeriesWorkload(Workload):
    """Two kinds of op of like cost (0.15 to 0.35 s each):

    * series: zeta_series(M), zeta_series_via_theta(M) and
      geodesic_counts_from_series(2M), for M in SERIES_ORDERS;
    * walks: closed_walk_count_dp(k), geodesic_count_dp(m) and
      primitive_class_count(p), lengths from WALKS.

    The inputs are a finite band of integers, so every round holds each of
    them once and the seed sets their order.  None of these paths caches
    across calls, so a later round costs what the first did.
    """

    name = "exact_series"
    tail_percentile = 75.0
    SERIES_ORDERS = tuple(range(17, 24))
    # (k, m, p); primitive_class_count(14) takes ~1.2 s, four times any other op
    WALKS = ((26, 16, 12), (27, 14, 10), (28, 12, 8), (29, 10, 6), (30, 8, 4), (31, 6, None), (32, 4, None))
    CHECKED_COEFFS = 20

    def __init__(self, seed):
        super().__init__(seed)
        self._lattice = None

    def lattice(self):
        if self._lattice is None:
            self._lattice = LatticeSeries(max(self.SERIES_ORDERS) + 1)
        return self._lattice

    def warmup_spec(self):
        return {"kind": "series", "M": 16}

    def next_round(self):
        ops = [{"kind": "series", "M": M} for M in self.SERIES_ORDERS]
        ops += [{"kind": "walks", "k": k, "m": m, "p": p} for k, m, p in self.WALKS]
        self.rng.shuffle(ops)
        return ops

    def run_op(self, gz, spec):
        if spec["kind"] == "series":
            M = spec["M"]
            ex = gz.expansions
            return ex.zeta_series(M), ex.zeta_series_via_theta(M), ex.geodesic_counts_from_series(2 * M)
        o = gz.oracles
        prim = o.primitive_class_count(spec["p"]) if spec["p"] else None
        return o.closed_walk_count_dp(spec["k"]), o.geodesic_count_dp(spec["m"]), prim

    def check(self, gz, spec, result):
        lat = self.lattice()
        bad = []
        if spec["kind"] == "series":
            M = spec["M"]
            z, z_theta, counts = result
            if z.coeffs != z_theta.coeffs:
                bad.append(f"series routes differ at M={M}")
            head = min(self.CHECKED_COEFFS, 2 * M)
            if list(z.coeffs[: head + 1]) != lat.zeta_coeffs(head):
                bad.append(f"zeta_series({M}) differs from the walk-moment expansion")
            log_z = series_log(z.coeffs)
            for m, n_m in counts:
                c = m * log_z[m]
                if c.denominator != 1 or c != n_m or c != lat.geodesic_count(m):
                    bad.append(f"N_{m} = {c} (series), {n_m} (program), {lat.geodesic_count(m)} (reference)")
            return bad
        closed, geo, prim = result
        k, m, p = spec["k"], spec["m"], spec["p"]
        if closed != comb(2 * k, k) ** 2:
            bad.append(f"closed_walk_count_dp({k}) != binomial(2k,k)^2")
        if geo != lat.geodesic_count(m):
            bad.append(f"geodesic_count_dp({m}) = {geo} != N_{m} = {lat.geodesic_count(m)}")
        if p is not None and prim != lat.primitive_classes(p):
            bad.append(f"primitive_class_count({p}) = {prim} != {lat.primitive_classes(p)}")
        return bad


# -- finite-graph limit ------------------------------------------------------------------


class FiniteLimit(Workload):
    """One grid-family convergence_table per op, at |u| < 0.115.

    A round holds one real u (Cholesky) on the ladder 8..64 and one non-real
    u (LU) on 7..56; the dense factorizations at 64 (real) and 56 (complex)
    cost about the same, so the two kinds of op do too.
    """

    name = "finite_limit"
    tail_percentile = 100.0  # a run has ~12 ops: report the slowest
    # Dense matrix fills and factorizations do not follow the interpreter's
    # drift (scaling by it widened the spread of 11 s of ops from 0.039 to
    # 0.072); a 128 MB fill does (0.021).
    speed_kernel = "memory"
    REAL_SIZES = (8, 16, 32, 64)
    COMPLEX_SIZES = (7, 14, 28, 56)
    RADIUS = (0.03, 0.112)
    MIN_ARG = 0.2  # keeps non-real u off the real axis

    def warmup_spec(self):
        # the smallest sizes reach every path (graph build, Cholesky, the
        # theta reference) without a second dense factorization at 64
        return {"u": complex(0.1, 0.0), "sizes": self.REAL_SIZES[:2]}

    def next_round(self):
        rng = self.rng
        r_real = rng.uniform(*self.RADIUS) * rng.choice((1.0, -1.0))
        arg = rng.uniform(self.MIN_ARG, math.pi - self.MIN_ARG) * rng.choice((1.0, -1.0))
        ops = [
            {"u": complex(r_real, 0.0), "sizes": self.REAL_SIZES},
            {"u": cmath.rect(rng.uniform(*self.RADIUS), arg), "sizes": self.COMPLEX_SIZES},
        ]
        rng.shuffle(ops)
        return ops

    def run_op(self, gz, spec):
        return gz.finite_graphs.convergence_table("grid", spec["u"], spec["sizes"])

    def check(self, gz, spec, rows):
        u = spec["u"]
        bad = []
        errs = [e for _, e in rows]
        if [s for s, _ in rows] != list(spec["sizes"]):
            bad.append("convergence_table returned other sizes")
        for (s, e1), (_, e2) in zip(rows, rows[1:]):
            if not (e2 > 0 and 1.6 <= e1 / e2 <= 2.4):
                bad.append(f"error ratio {e1 / e2 if e2 else math.inf:.3f} from size {s} to {2 * s} at u={u}")
        fg = gz.finite_graphs
        for s in spec["sizes"][:2]:
            ours, v = grid_log_zeta_slogdet(s, u)
            theirs = fg.normalized_log_zeta(fg.grid_graph(s, s), u)
            diff = v * (theirs - ours)
            wrapped = math.remainder(diff.imag, 2.0 * math.pi)
            if abs(diff.real) > 1e-9 or abs(wrapped) > 1e-9:
                bad.append(f"normalized_log_zeta differs from slogdet at size {s}, u={u}")
        if not all(math.isfinite(e) for e in errs):
            bad.append("non-finite error")
        return bad


WORKLOADS = {w.name: w for w in (ThetaSheets, TorusQuadrature, ExactSeriesWorkload, FiniteLimit)}
