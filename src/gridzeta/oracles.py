"""Independent verification routes: quadrature and brute-force walk counting.

The torus quadrature evaluates the log-determinant of the deformed lattice
Laplacian directly as a double integral of log(1 + 3u^2 - 2u cos s - 2u cos t)
over the flat torus (normalized measure); a one-dimensional reduction of the
same integral provides a cheaper second route.  Both integrands are smooth
and periodic, so equispaced (trapezoid) rules converge spectrally and the
adaptive strategy is simply to double the node count until stable.

The walk counters enumerate closed lattice walks exactly with big integers;
they are deliberately naive so that they can serve as oracles for the series
coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PrecisionError
from .regions import is_in_omega
from .special import modulus_from_u

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "WalkCounterState",
    "log_det_torus_quadrature",
    "log_det_torus_trapezoid",
    "log_det_1d_quadrature",
    "zint_identity_residual",
    "closed_walk_count_dp",
    "geodesic_count_dp",
    "primitive_class_count",
    "zeta_via_quadrature",
]


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 14

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()

# the torus rule refuses to evaluate a larger outer-by-inner node batch at once
_NODE_BUDGET = 2**23


def _periodic_mean_batch(fvec, tol: float, max_level: int, n0: int = 16):
    """Mean over one period for a batch of smooth periodic integrands.

    fvec(theta_array) must return an array of shape (batch, len(theta)).
    Doubles the equispaced node count until the worst entry moves by less
    than tol.
    """
    n = n0
    theta = 2.0 * np.pi * np.arange(n) / n
    prev = fvec(theta).mean(axis=1)
    for _ in range(max_level):
        # new nodes interleave the old ones
        extra = theta + np.pi / n
        cur = 0.5 * (prev + fvec(extra).mean(axis=1))
        n *= 2
        theta = 2.0 * np.pi * np.arange(n) / n
        if np.max(np.abs(cur - prev)) <= tol:
            return cur
        prev = cur
    raise PrecisionError("periodic quadrature did not reach the requested tolerance")


def log_det_torus_quadrature(u, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> complex:
    """Log-determinant via the double integral over the torus.

    (1/2pi)^2 iint log(1 + 3u^2 - 2u cos s - 2u cos t) ds dt, evaluated as an
    iterated equispaced rule: the inner mean over s is refined per outer node,
    then the outer mean over t is refined.  Valid for u in the principal
    region, where the integrand avoids the cut (-inf, 0].
    """
    u = complex(u)
    if u == 0:
        return 0.0j
    if not is_in_omega(u):
        raise DomainError("the torus integral represents the log-determinant only on the principal region")
    c = 1.0 + 3.0 * u * u

    def inner_for(tvals, tol):
        a = c - 2.0 * u * np.cos(tvals)  # one inner constant per outer node

        def fvec(s):
            if len(a) * len(s) > _NODE_BUDGET:
                raise PrecisionError(
                    f"torus quadrature would evaluate {len(a)}x{len(s)} nodes at once, "
                    f"over the budget of {_NODE_BUDGET}"
                )
            return np.log(a[:, None] - 2.0 * u * np.cos(s)[None, :])

        return _periodic_mean_batch(fvec, tol, spec.max_subdivisions)

    inner_tol = spec.abs_tol / 8.0
    n = 16
    theta = 2.0 * np.pi * np.arange(n) / n
    prev = np.mean(inner_for(theta, inner_tol))
    for _ in range(spec.max_subdivisions):
        extra = theta + np.pi / n
        cur = 0.5 * (prev + np.mean(inner_for(extra, inner_tol)))
        n *= 2
        theta = 2.0 * np.pi * np.arange(n) / n
        if abs(cur - prev) <= spec.abs_tol / 2.0:
            return complex(cur)
        prev = cur
    raise PrecisionError("torus quadrature did not converge to the requested tolerance")


def log_det_torus_trapezoid(u, n: int = 128) -> complex:
    """Secondary check: fixed n-by-n product trapezoid rule on the torus."""
    u = complex(u)
    theta = 2.0 * np.pi * np.arange(n) / n
    grid = np.cos(theta)[:, None] + np.cos(theta)[None, :]
    vals = np.log(1.0 + 3.0 * u * u - 2.0 * u * grid)
    return complex(vals.mean())


def log_det_1d_quadrature(u, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> complex:
    """Log-determinant via the one-dimensional reduced integral.

    log((1+3u^2)/2) + (2/pi) * integral over [0, pi/2] of
    log(1 + sqrt(1 - k^2 sin^2 w)) dw with k = 4u/(1+3u^2).
    """
    u = complex(u)
    if u == 0:
        return 0.0j
    if not is_in_omega(u):
        raise DomainError("the reduced integral is valid only on the principal region")
    from scipy.integrate import quad

    k = modulus_from_u(u)
    k2 = k * k

    def integrand(w):
        s2 = math.sin(w) ** 2
        return cmath.log(1.0 + cmath.sqrt(1.0 - k2 * s2))

    re, re_err = quad(lambda w: integrand(w).real, 0.0, math.pi / 2,
                      epsabs=spec.abs_tol / 8, epsrel=spec.rel_tol, limit=200)
    im, im_err = quad(lambda w: integrand(w).imag, 0.0, math.pi / 2,
                      epsabs=spec.abs_tol / 8, epsrel=spec.rel_tol, limit=200)
    if re_err + im_err > max(spec.abs_tol, spec.rel_tol * abs(complex(re, im))):
        raise PrecisionError("reduced integral error estimate above tolerance")
    return cmath.log((1.0 + 3.0 * u * u) / 2.0) + (2.0 / math.pi) * complex(re, im)


def zint_identity_residual(z: float) -> float:
    """Residual of the mean-of-log identity
    (1/2pi) int log(1 - z cos) = log((1 + sqrt(1-z^2))/2), for z in (-1, 1)."""
    z = float(z)
    if not -1.0 < z < 1.0:
        raise DomainError("the identity holds for z in (-1, 1)")
    if z == 0.0:
        return 0.0

    def fvec(theta):
        return np.log(1.0 - z * np.cos(theta))[None, :]

    lhs = _periodic_mean_batch(fvec, 1e-14, 16)[0]
    rhs = math.log(0.5 * (1.0 + math.sqrt(1.0 - z * z)))
    return abs(lhs - rhs)


# -- exact walk counting ------------------------------------------------------

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_OPPOSITE = {0: 1, 1: 0, 2: 3, 3: 2}


@dataclass
class WalkCounterState:
    """Exact counting table for lattice walks within a bounding box."""

    radius: int
    counts: dict = field(default_factory=dict)

    def inside(self, x: int, y: int) -> bool:
        return abs(x) <= self.radius and abs(y) <= self.radius


def closed_walk_count_dp(k: int) -> int:
    """Closed walks of length 2k from the origin, by stepwise convolution.

    Must equal binomial(2k, k)^2; exact big-integer arithmetic throughout.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > 32:
        raise DomainError("closed_walk_count_dp is a desk-scale oracle (k <= 32)")
    steps = 2 * k
    state = WalkCounterState(radius=steps, counts={(0, 0): 1})
    for _ in range(steps):
        nxt: dict = {}
        for (x, y), c in state.counts.items():
            for dx, dy in _STEPS:
                p = (x + dx, y + dy)
                if state.inside(*p):
                    nxt[p] = nxt.get(p, 0) + c
        state.counts = nxt
    return state.counts.get((0, 0), 0)


def geodesic_count_dp(m: int) -> int:
    """Closed non-backtracking tailless walks of length m based at the origin.

    State is (position, incoming direction); the walk may never take the
    reverse of its previous step, and at closure the last step must not be
    the reverse of the first.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > 16:
        raise DomainError("geodesic_count_dp is a desk-scale oracle (m <= 16)")
    if m % 2 == 1 or m < 4:
        return 0
    total = 0
    for d0 in range(4):
        dx, dy = _STEPS[d0]
        state = WalkCounterState(radius=m, counts={(dx, dy, d0): 1})
        for _ in range(m - 1):
            nxt: dict = {}
            for (x, y, d), c in state.counts.items():
                for d2 in range(4):
                    if d2 == _OPPOSITE[d]:
                        continue
                    sx, sy = _STEPS[d2]
                    p = (x + sx, y + sy, d2)
                    if state.inside(p[0], p[1]):
                        nxt[p] = nxt.get(p, 0) + c
            state.counts = nxt
        for (x, y, d), c in state.counts.items():
            if x == 0 and y == 0 and d != _OPPOSITE[d0]:
                total += c
    return total


def _closed_nonbacktracking_words(m: int):
    """All direction words of closed non-backtracking tailless m-walks."""
    words = []
    word = [0] * m

    def extend(pos_x, pos_y, step):
        if abs(pos_x) + abs(pos_y) > m - step:
            return
        if step == m:
            if pos_x == 0 and pos_y == 0 and word[0] != _OPPOSITE[word[m - 1]]:
                words.append(tuple(word))
            return
        prev = word[step - 1] if step > 0 else None
        for d in range(4):
            if prev is not None and d == _OPPOSITE[prev]:
                continue
            word[step] = d
            dx, dy = _STEPS[d]
            extend(pos_x + dx, pos_y + dy, step + 1)

    extend(0, 0, 0)
    return words


def _is_primitive(word) -> bool:
    m = len(word)
    for p in range(1, m):
        if m % p == 0 and word == word[p:] + word[:p]:
            return False
    return True


def _reverse_word(word):
    return tuple(_OPPOSITE[d] for d in reversed(word))


def primitive_class_count(m: int, oriented: bool = True) -> int:
    """Primitive free-homotopy classes of closed m-walks up to translation.

    A class is an orbit of primitive closed non-backtracking tailless walks
    under cyclic rotation of the direction word (= moving the basepoint along
    the walk and translating back).  With oriented=False, orbits under
    traversal reversal are merged as well.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > 14:
        raise DomainError("primitive_class_count enumerates explicitly (m <= 14)")
    if m % 2 == 1 or m < 4:
        return 0
    canon = set()
    for word in _closed_nonbacktracking_words(m):
        if not _is_primitive(word):
            continue
        rotations = [word[i:] + word[:i] for i in range(m)]
        if not oriented:
            rev = _reverse_word(word)
            rotations.extend(rev[i:] + rev[:i] for i in range(m))
        canon.add(min(rotations))
    return len(canon)


def zeta_via_quadrature(u, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> complex:
    """Zeta value exp(-logdet)/(1-u^2) with logdet from the torus quadrature."""
    u = complex(u)
    logdet = log_det_torus_quadrature(u, spec)
    return cmath.exp(-logdet) / (1.0 - u * u)
