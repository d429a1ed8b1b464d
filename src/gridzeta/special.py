"""Complete elliptic integrals, theta constants, and the modulus maps.

Everything here is plain double precision on Python complex numbers.  The
complete elliptic integral K is evaluated through the arithmetic-geometric
mean with the standard "right" square-root choice, the theta constants
through their q-series and infinite products, and the modulus k both as the
rational map k = 4u/(1+3u^2) of the lattice parameter u and as the theta
ratio theta2^2/theta3^2.

The variable t with q = t^2 is used wherever theta2 appears: theta2^2 is an
analytic, single-valued function of t on the unit disk (it is *not* a
function of q alone, because of the fractional power in the q-series).
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    BranchCutError,
    BranchPointError,
    DomainError,
    IterationLimitError,
    PoleError,
    PrecisionError,
)
from .regions import RegionTag, classify_u

__all__ = [
    "agm",
    "elliptic_k",
    "theta3",
    "theta4",
    "theta2_sq",
    "theta3_product",
    "theta4_product",
    "theta2_sq_from_series",
    "modulus_from_u",
    "modulus_from_t",
    "nome_t_from_u",
    "u_pair_from_modulus",
    "u_pair_from_t",
]


# Theta-type series and products stop once the current term is below
# _TAIL_TOL relative to the partial sum and the terms are decreasing; if
# _MAX_TERMS terms do not suffice, a PrecisionError is raised.
_MAX_TERMS = 256
_TAIL_TOL = 1e-17
_AGM_MAX_ITER = 64


def _finite(z: complex, what: str) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PrecisionError(f"{what} produced a non-finite value")
    return z


def agm(a, b) -> complex:
    """Arithmetic-geometric mean with the principal branch convention.

    At every step the square root is chosen so that |a-b| <= |a+b| (ties
    resolved towards Im(b/a) > 0), which keeps the iteration on the
    principal branch and makes the limit agree with pi/(2K).
    """
    a = complex(a)
    b = complex(b)
    if a == 0 or b == 0:
        raise DomainError("agm requires nonzero arguments")
    r = a / b
    if r.imag == 0.0 and r.real < 0.0:
        raise DomainError("agm is not defined when a/b is a negative real")
    prev_gap = math.inf
    for _ in range(_AGM_MAX_ITER):
        gap = abs(a - b)
        if gap <= 4e-16 * abs(a):
            return _finite(0.5 * (a + b), "agm")
        if gap >= prev_gap:
            # quadratic convergence has hit rounding noise
            if gap <= 1e-12 * abs(a):
                return _finite(0.5 * (a + b), "agm")
            raise IterationLimitError("agm iteration stalled before converging")
        prev_gap = gap
        am = 0.5 * (a + b)
        gm = cmath.sqrt(a * b)
        da, db = abs(am - gm), abs(am + gm)
        if da > db or (da == db and (gm / am).imag < 0.0):
            gm = -gm
        a, b = am, gm
    raise IterationLimitError("agm did not converge in %d iterations" % _AGM_MAX_ITER)


def _elliptic_k_unchecked(k: complex) -> complex:
    """K via the AGM without the branch-cut guard.

    On the cut k^2 in (1, inf) this returns one of the two boundary values;
    internal callers that only consume quantities continuous across the cut
    (like the nome) may use it.
    """
    kp = cmath.sqrt(1.0 - k * k)
    return cmath.pi / (2.0 * agm(1.0, kp))


def elliptic_k(k) -> complex:
    """Complete elliptic integral of the first kind, principal branch.

    K(k) = integral of 1/sqrt(1 - k^2 sin^2 w) over w in [0, pi/2],
    computed as pi / (2 agm(1, sqrt(1-k^2))).  Requires k^2 outside [1, inf);
    on that set the function has poles (k = +-1) or a branch cut.
    """
    k = complex(k)
    m = k * k
    if m.imag == 0.0 and m.real >= 1.0:
        if m.real == 1.0:
            raise PoleError("elliptic_k has logarithmic poles at k = +-1")
        raise BranchCutError(
            "k^2 in (1, inf) is on the branch cut of K; choose a sheet explicitly"
        )
    return _finite(_elliptic_k_unchecked(k), "elliptic_k")


def _theta_sum(q: complex, signed: bool, name: str) -> complex:
    if abs(q) >= 1.0:
        raise DomainError(f"{name} requires |q| < 1")
    total = 1.0 + 0.0j
    qn = 1.0 + 0.0j  # q^(n^2), updated incrementally
    qstep = q  # q^(2n+1)
    q2 = q * q
    prev = math.inf
    for n in range(1, _MAX_TERMS + 1):
        qn *= qstep
        qstep *= q2
        term = 2.0 * qn
        if signed and (n % 2 == 1):
            term = -term
        total += term
        mag = abs(term)
        if mag < _TAIL_TOL * max(1.0, abs(total)) and mag <= prev:
            return _finite(total, name)
        prev = mag
    raise PrecisionError(f"{name} tail not resolved within {_MAX_TERMS} terms")


def theta3(q) -> complex:
    """theta3(q) = sum of q^(n^2) over all integers n, for |q| < 1."""
    return _theta_sum(complex(q), False, "theta3")


def theta4(q) -> complex:
    """theta4(q) = sum of (-1)^n q^(n^2) over all integers n, for |q| < 1."""
    return _theta_sum(complex(q), True, "theta4")


def _product(q: complex, factor, name: str) -> complex:
    """Evaluate an infinite product whose n-th factor tends to 1 like q^n."""
    if abs(q) >= 1.0:
        raise DomainError(f"{name} requires |q| < 1")
    total = 1.0 + 0.0j
    for n in range(1, _MAX_TERMS + 1):
        f, scale = factor(n)
        total *= f
        if scale < _TAIL_TOL:
            return _finite(total, name)
    raise PrecisionError(f"{name} product not resolved within {_MAX_TERMS} factors")


def theta3_product(q) -> complex:
    """Product form of theta3: prod (1-q^(2n)) (1+q^(2n-1))^2."""
    q = complex(q)

    def factor(n):
        even = q ** (2 * n)
        odd = q ** (2 * n - 1)
        return (1 - even) * (1 + odd) ** 2, abs(odd)

    return _product(q, factor, "theta3_product")


def theta4_product(q) -> complex:
    """Product form of theta4: prod (1-q^(2n)) (1-q^(2n-1))^2."""
    q = complex(q)

    def factor(n):
        even = q ** (2 * n)
        odd = q ** (2 * n - 1)
        return (1 - even) * (1 - odd) ** 2, abs(odd)

    return _product(q, factor, "theta4_product")


def theta2_sq(t) -> complex:
    """theta2 squared as a single-valued function of t (where q = t^2).

    Uses the product form 4t prod (1-t^(4n))^2 (1+t^(4n))^4, which is
    analytic on the whole unit t-disk.
    """
    t = complex(t)
    if abs(t) >= 1.0:
        raise DomainError("theta2_sq requires |t| < 1")
    if t == 0:
        return 0.0j

    def factor(n):
        p = t ** (4 * n)
        return (1 - p) ** 2 * (1 + p) ** 4, abs(p)

    return 4.0 * t * _product(t, factor, "theta2_sq")


def theta2_sq_from_series(t) -> complex:
    """theta2 squared via the squared half-integer series, 4t (sum t^(2n(n+1)))^2.

    Independent of the product route; used as its cross-check.
    """
    t = complex(t)
    if abs(t) >= 1.0:
        raise DomainError("theta2_sq_from_series requires |t| < 1")
    s = 1.0 + 0.0j
    prev = math.inf
    for n in range(1, _MAX_TERMS + 1):
        term = t ** (2 * n * (n + 1))
        s += term
        mag = abs(term)
        if mag < _TAIL_TOL * max(1.0, abs(s)) and mag <= prev:
            break
        prev = mag
    else:
        raise PrecisionError("theta2_sq_from_series tail not resolved")
    return 4.0 * t * s * s


def modulus_from_u(u) -> complex:
    """The modulus k = 4u / (1 + 3u^2); poles at u = +-i/sqrt(3)."""
    u = complex(u)
    den = 1.0 + 3.0 * u * u
    if abs(den) < 1e-12:
        raise PoleError("modulus has poles at u = +-i/sqrt(3)")
    return 4.0 * u / den


def modulus_from_t(t) -> complex:
    """The modulus k = theta2^2(t) / theta3^2(t^2), analytic in t on the disk.

    theta2^2 comes from the half-integer series (about 19 terms at |t| = 0.95,
    where the product form needs about 190 factors); the product form stays
    the independent cross-check.
    """
    t = complex(t)
    th3 = theta3(t * t)
    return theta2_sq_from_series(t) / (th3 * th3)


def _nome_t_from_modulus(k: complex) -> complex:
    """Solve theta2^2(t)/theta3^2(t^2) = k for the principal t."""
    return _nome_t_and_modulus(k)[0]


def _nome_t_and_modulus(k: complex):
    """The principal t with theta2^2(t)/theta3^2(t^2) = k, and k(t) itself.

    Route: tau = i K(k') / K(k) with principal square roots, t = exp(i pi tau / 2).
    K depends on k^2 only, so the sign of k' is immaterial; the sign of t is
    fixed afterwards by matching the (odd) analytic modulus map, whose value
    at the returned t is returned with it.
    """
    if k == 0:
        return 0.0j, 0.0j
    kk = _elliptic_k_unchecked(k)
    kp = _elliptic_k_unchecked(cmath.sqrt(1.0 - k * k))
    tau = 1j * kp / kk
    if tau.imag <= 0.0:
        raise PrecisionError("half-period ratio left the upper half-plane")
    t = cmath.exp(0.5j * cmath.pi * tau)
    if abs(t) >= 1.0:
        raise PrecisionError("nome escaped the unit disk")
    kt = modulus_from_t(t)
    if abs(kt - k) > abs(kt + k):
        t = -t
        kt = -kt
    if abs(kt - k) > 1e-9 * max(1.0, abs(k)):
        raise PrecisionError(
            "nome did not reproduce the modulus (residual %.3e)" % abs(kt - k)
        )
    return t, kt


def nome_t_from_u(u) -> complex:
    """Principal lift t of a point u in the region Omega.

    Computes k = 4u/(1+3u^2), tau = i K(sqrt(1-k^2))/K(k), t = exp(i pi tau/2),
    with the sign of t chosen so that modulus_from_t(t) = k.  At u = 0 the
    removable point t = 0 is returned exactly.
    """
    u = complex(u)
    if u == 0:
        return 0.0j
    if classify_u(u) is not RegionTag.IN_OMEGA:
        raise DomainError(
            "u is outside the principal region; use the surface sheet machinery"
        )
    return _nome_t_from_modulus(modulus_from_u(u))


def u_pair_from_t(t) -> tuple[complex, complex]:
    """Both solutions u of 4u/(1+3u^2) = k(t), as (u_plus, u_minus).

    The two roots satisfy u_plus * u_minus = 1/3; u_minus is the one of
    smaller magnitude (the branch with u_minus -> 0 as t -> 0).
    """
    return u_pair_from_modulus(modulus_from_t(t))


def u_pair_from_modulus(k) -> tuple[complex, complex]:
    """Both solutions u of 4u/(1+3u^2) = k, as (u_plus, u_minus), for k != 0."""
    k = complex(k)
    if k == 0:
        raise DomainError("the root pair needs k != 0 (k(t) = 0 only at t = 0)")
    disc = 4.0 - 3.0 * k * k
    if abs(disc) < 1e-8:
        raise BranchPointError("modulus at a branch point k = +-2/sqrt(3)")
    s = cmath.sqrt(disc)
    u_a = (2.0 + s) / (3.0 * k)
    u_b = (2.0 - s) / (3.0 * k)
    if abs(u_a) < abs(u_b):
        u_a, u_b = u_b, u_a
    return u_a, u_b
