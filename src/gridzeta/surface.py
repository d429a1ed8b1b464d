"""Surface points, sheet navigation, and the extended zeta function.

A surface point is a pair (u, t) in C x D tied together by the modulus
relation 4u/(1+3u^2) = theta2^2(t)/theta3^2(t^2), with the branch points
k = +-2/sqrt(3) excluded; (0, 0) is the one distinguished removable point.
The extended zeta function

    Z(u, t) = t e^{-F(t)} / (u (1 - u^2)),      Z(0, 0) = 1,

is single valued on this surface.  Different sheets over the same u are
reached by acting on the half-period ratio tau = -(2i/pi) log t with the
free group of integer Mobius transformations that are the identity mod 2 and
have upper-right entry divisible by 4; words in that group are the only
sheet bookkeeping used here, never ad-hoc branch guessing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BranchAmbiguityError, DomainError, PrecisionError
from .regions import RegionTag, classify_u
from .special import (
    _nome_t_and_modulus,
    _nome_t_from_modulus,
    modulus_from_t,
    modulus_from_u,
    u_pair_from_modulus,
)

__all__ = [
    "SurfacePoint",
    "DeckWord",
    "DECK_GENERATORS",
    "RegionTag",
    "classify_u",
    "lift_principal",
    "involution",
    "deck_transform",
    "zeta_tilde",
    "zeta_principal",
    "F_eval",
    "functional_equation_residual",
]

RELATION_TOL = 1e-10
BRANCH_GUARD = 1e-8  # refuse |4 - 3k^2| below this
T_CAP = 0.95  # precision cap on |t| for series evaluation


@dataclass(frozen=True)
class SurfacePoint:
    """A point sigma = (u, t) on the uniformizing surface.

    `k` is the modulus k(t), kept from validation so that callers need not
    evaluate the theta ratio again; it takes no part in equality, hashing,
    repr or the JSON form.
    """

    u: complex
    t: complex
    k: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "u", complex(self.u))
        object.__setattr__(self, "t", complex(self.t))
        self._validate(None)

    def _validate(self, k):
        """Check the modulus relation and the branch guard, and store k(t);
        `k` is k(t) when the caller already has it, else None."""
        u, t = self.u, self.t
        if u == 0 and t == 0:
            object.__setattr__(self, "k", 0.0j)
            return
        if abs(t) >= 1.0:
            raise DomainError("surface points require |t| < 1")
        try:
            ku = modulus_from_u(u)
        except DomainError as exc:
            raise DomainError(f"invalid surface point: {exc}") from exc
        kt = modulus_from_t(t) if k is None else k
        if abs(ku - kt) > RELATION_TOL * max(1.0, abs(kt)):
            raise DomainError(
                "surface relation violated: |k(u) - k(t)| = %.3e" % abs(ku - kt)
            )
        if abs(4.0 - 3.0 * kt * kt) < BRANCH_GUARD:
            raise DomainError("surface point too close to a branch point k = +-2/sqrt(3)")
        object.__setattr__(self, "k", kt)

    @property
    def is_origin(self) -> bool:
        return self.u == 0 and self.t == 0

    def to_json_dict(self) -> dict:
        return {"u": [self.u.real, self.u.imag], "t": [self.t.real, self.t.imag]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SurfacePoint":
        return cls(complex(*data["u"]), complex(*data["t"]))


ORIGIN = SurfacePoint(0.0, 0.0)


def _surface_point(u: complex, t: complex, k: complex) -> SurfacePoint:
    """SurfacePoint(u, t) for a t whose modulus k = k(t) is already known;
    every check of the public constructor still runs."""
    sigma = object.__new__(SurfacePoint)
    object.__setattr__(sigma, "u", u)
    object.__setattr__(sigma, "t", t)
    sigma._validate(k)
    return sigma


def lift_principal(u) -> SurfacePoint:
    """Lift u in the principal region to the surface, with t ~ u near 0."""
    u = complex(u)
    if not cmath.isfinite(u):
        raise DomainError(f"lift_principal needs a finite u, got {u}")
    if u == 0:
        return ORIGIN
    if classify_u(u) is not RegionTag.IN_OMEGA:
        raise DomainError(
            "lift_principal needs u in the principal region; reach other u through deck words"
        )
    t, k = _nome_t_and_modulus(modulus_from_u(u))
    return _surface_point(u, t, k)


def involution(sigma: SurfacePoint) -> SurfacePoint:
    """The involution (u, t) -> (1/(3u), t) carrying the functional equation."""
    if sigma.is_origin:
        raise DomainError("the involution is undefined at the removable point (0, 0)")
    # k(1/(3u)) = k(u): the involution keeps t and the modulus
    return _surface_point(1.0 / (3.0 * sigma.u), sigma.t, sigma.k)


# -- deck transformations -----------------------------------------------------


def _validate_generator(m):
    (a, b), (c, d) = m
    if a * d - b * c != 1:
        raise ValueError("deck generator must have determinant one")
    if a % 2 != 1 or d % 2 != 1 or b % 2 != 0 or c % 2 != 0:
        raise ValueError("deck generator must be the identity mod 2")
    if b % 4 != 0:
        raise ValueError("deck generator needs upper-right entry divisible by 4")
    return m


# Free generators of the sheet group: the translation by 4, the lower
# unipotent, and their mixed conjugate.  Each satisfies det = 1, == I mod 2,
# and b == 0 mod 4, which is checked at import time.
DECK_GENERATORS = {
    1: _validate_generator(((1, 4), (0, 1))),
    2: _validate_generator(((1, 0), (2, 1))),
    3: _validate_generator(((5, -8), (2, -3))),
}


def _mat_mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _mat_inv(m):
    (a, b), (c, d) = m  # determinant one
    return ((d, -b), (-c, a))


@dataclass(frozen=True)
class DeckWord:
    """A word in the free sheet group: ((generator index, exponent), ...)."""

    syllables: tuple = ()

    def __post_init__(self):
        for idx, exp in self.syllables:
            if idx not in DECK_GENERATORS:
                raise ValueError(f"unknown deck generator index {idx}")
            if not isinstance(exp, int):
                raise ValueError("deck exponents must be integers")

    @classmethod
    def from_letters(cls, letters) -> "DeckWord":
        """Build from signed generator indices, e.g. (2, -1) for g2 g1^-1."""
        syll: list[list[int]] = []
        for letter in letters:
            idx, exp = abs(letter), (1 if letter > 0 else -1)
            if syll and syll[-1][0] == idx:
                syll[-1][1] += exp
                if syll[-1][1] == 0:
                    syll.pop()
            else:
                syll.append([idx, exp])
        return cls(tuple((i, e) for i, e in syll))

    def matrix(self):
        m = ((1, 0), (0, 1))
        for idx, exp in self.syllables:
            g = DECK_GENERATORS[idx]
            if exp < 0:
                g, exp = _mat_inv(g), -exp
            for _ in range(exp):
                m = _mat_mul(m, g)
        return m

    def __str__(self) -> str:
        if not self.syllables:
            return "e"
        return "*".join(
            f"g{i}" if e == 1 else f"g{i}^{e}" for i, e in self.syllables
        )


def deck_transform(sigma: SurfacePoint, word: DeckWord) -> SurfacePoint:
    """Move sigma to another sheet over the same u.

    Recovers tau = -(2i/pi) log t (principal log), applies the Mobius action
    of the word, and re-exponentiates.  The modulus is preserved exactly by
    the group, so the u fiber is unchanged; this is verified numerically and
    a failure raises rather than guessing a branch.
    """
    if sigma.is_origin:
        raise DomainError("deck transformations act on the punctured surface only")
    if not word.syllables:
        return sigma
    (a, b), (c, d) = word.matrix()
    tau = cmath.log(sigma.t) * (-2j / math.pi)
    tau2 = (a * tau + b) / (c * tau + d)
    if tau2.imag <= 0.0:
        raise BranchAmbiguityError("transformed half-period ratio left the upper half-plane")
    t2 = cmath.exp(0.5j * math.pi * tau2)
    if abs(t2) >= T_CAP:
        raise PrecisionError("transformed sheet too close to the unit circle for evaluation")
    k_old = sigma.k
    k_new = modulus_from_t(t2)
    if abs(k_new - k_old) > 1e-9 * max(1.0, abs(k_old)):
        raise BranchAmbiguityError(
            "deck transform failed to preserve the modulus (drift %.3e)" % abs(k_new - k_old)
        )
    u_a, u_b = u_pair_from_modulus(k_new)
    if min(abs(sigma.u - u_a), abs(sigma.u - u_b)) > 1e-8 * max(1.0, abs(sigma.u)):
        raise BranchAmbiguityError("neither candidate root continues the u fiber")
    return _surface_point(sigma.u, t2, k_new)


# -- the extended zeta function ----------------------------------------------

F_SERIES_ORDER = 1024
F_TAIL_TOL = 1e-14  # bound on the dropped tail of the F series


@lru_cache(maxsize=4)
def _F_even_coeffs(order: int):
    """Coefficients c with F(t) = sum c[j] (t^2)^j, as a float list, and the
    suffix maxima max(|c[i]| for i >= j) that bound the tail from j on.

    theta3^2 theta4^4 = sum p_j q^j has integer coefficients (|p_j| < 1.1e6
    through q^512), so an int64 convolution gives them exactly, and
    F' = (1 - theta3^2 theta4^4)/t at q = t^2 makes c[j] = -p_j / (2j).
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    n = order // 2 + 1
    theta3_q = np.zeros(n, dtype=np.int64)
    theta3_q[0] = 1
    theta3_q[np.arange(1, math.isqrt(n - 1) + 1) ** 2] = 2
    theta4_q = theta3_q.copy()
    theta4_q[np.arange(1, math.isqrt(n - 1) + 1, 2) ** 2] = -2
    p = theta3_q
    for factor in (theta3_q, theta4_q, theta4_q, theta4_q, theta4_q):
        p = np.convolve(p, factor)[:n]
    coeffs = np.zeros(n)
    coeffs[1:] = -p[1:] / (2.0 * np.arange(1, n))
    suffix_max = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    return coeffs.tolist(), suffix_max.tolist()


def _F_tail_bound(x: float, n: int) -> float:
    """Bound on sum_{j > n} |c_j| x^j for 0 <= x < 1.

    |c_j| = |p_j| / (2j) <= 16.5 j, since |p_j| <= r_6(j) <= 20 sigma_2(j) < 33 j^2.
    """
    return 16.5 * x ** (n + 1) * ((n + 1) - n * x) / (1.0 - x) ** 2


def F_eval(t) -> complex:
    """The analytic exponent F(t): series sum with F(0) = 0, real coefficients.

    Valid for |t| <= 0.95, where the truncation order F_SERIES_ORDER leaves
    the tail below 1e-14.  Horner runs over the terms before the first j
    whose tail bound suffix_max[j] |t|^(2j) / (1 - |t|^2) is below 1e-14: 9
    terms at |t| = 0.1, 86 at |t| = 0.79, 405 at |t| = 0.95.
    """
    t = complex(t)
    if abs(t) > T_CAP:
        raise PrecisionError("F_eval is limited to |t| <= %.2f" % T_CAP)
    if t == 0:
        return 0.0j
    coeffs, suffix_max = _F_even_coeffs(F_SERIES_ORDER)
    w = t * t
    aw = max(abs(w), 1e-300)  # keeps the log finite where t * t underflows
    cut = F_TAIL_TOL * (1.0 - aw)
    # the bound with suffix_max[0] gives a start; the suffix maxima may allow fewer terms
    n = min(len(coeffs), int(math.log(cut / suffix_max[0]) / math.log(aw)) + 1)
    while n > 0 and suffix_max[n - 1] * aw ** (n - 1) < cut:
        n -= 1
    acc = 0.0 + 0.0j
    for c in reversed(coeffs[:n]):
        acc = acc * w + c
    # proven bound on the tail beyond the computed order
    if _F_tail_bound(aw, len(coeffs) - 1) > F_TAIL_TOL * max(1.0, abs(acc)):
        raise PrecisionError("series order insufficient for the requested |t|")
    return acc


def zeta_tilde(sigma: SurfacePoint) -> complex:
    """The extended zeta value at a surface point; equals 1 at (0, 0)."""
    if sigma.is_origin:
        return 1.0 + 0.0j
    if abs(sigma.t) > T_CAP:
        raise PrecisionError("zeta evaluation is limited to |t| <= %.2f" % T_CAP)
    u = sigma.u
    return sigma.t * cmath.exp(-F_eval(sigma.t)) / (u * (1.0 - u * u))


def zeta_principal(u) -> complex:
    """Zeta at u through the principal nome formula, without the region guard.

    Inside the principal region this equals zeta_tilde(lift_principal(u));
    outside it produces the principal-branch continuation whose jumps across
    the singular set are the expected branch-cut artifacts (useful for the
    plotting data, not for analysis).
    """
    u = complex(u)
    if u == 0:
        return 1.0 + 0.0j
    t = _nome_t_from_modulus(modulus_from_u(u))
    return t * cmath.exp(-F_eval(t)) / (u * (1.0 - u * u))


def functional_equation_residual(sigma: SurfacePoint) -> float:
    """Relative residual of Z(iota(sigma)) = 27 u^4 (1-u^2)/(9u^2-1) Z(sigma)."""
    if sigma.is_origin:
        raise DomainError("the functional equation pairs points away from (0, 0)")
    u = sigma.u
    if abs(9.0 * u * u - 1.0) < 1e-12:
        raise DomainError("functional equation degenerates at u = +-1/3")
    lhs = zeta_tilde(involution(sigma))
    rhs = 27.0 * u ** 4 * (1.0 - u * u) / (9.0 * u * u - 1.0) * zeta_tilde(sigma)
    return abs(lhs - rhs) / abs(lhs)
