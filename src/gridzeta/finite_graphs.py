"""Square grid graphs and torus graphs, their zeta functions, and the limit.

The zeta function of a finite graph is the reciprocal of
(1-u^2)^(e-v) det(I - Au + (Deg - I) u^2); for the 4-regular torus the
determinant factors over the explicit Fourier eigenvalues
2 cos(2 pi j / n) + 2 cos(2 pi l / m) of the adjacency operator, giving a
second, structurally independent evaluation route.  Both families are
Cartesian products, so one separable kernel gives their normalized log zeta.

Normalized by vertex count, the log zeta of growing torus or grid graphs
converges to the log zeta of the infinite lattice; `convergence_table`
measures that against the closed-form surface route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (BranchAmbiguityError, ConditioningError, DomainError,
                     IterationLimitError, PoleError)
from .regions import is_in_omega

if TYPE_CHECKING:  # scipy is imported where it is used, not with the package
    import scipy.sparse

__all__ = [
    "FiniteGraph",
    "GRID_LIMIT_RADIUS",
    "grid_graph",
    "torus_graph",
    "torus_adjacency_eigenvalues",
    "ihara_zeta_finite",
    "torus_zeta_eigenroute",
    "finite_functional_equation_residual",
    "normalized_log_zeta",
    "convergence_table",
    "convergence_table_csv",
]

# convergence of the grid (free-boundary) family is only claimed on this disk
GRID_LIMIT_RADIUS = 1.0 / (4.0 + math.sqrt(22.0))

_DENSE_CAP = 4096

_VERTEX_CAP = 2**24  # no larger product graph is built or summed
_CHUNK = 2**16  # factors per block of its row-chunked sum
_NEWTON_STEPS = 50


@dataclass(frozen=True)
class FiniteGraph:
    """Vertex/edge data of a finite simple graph with degree bookkeeping."""

    n_vertices: int
    adjacency: scipy.sparse.csr_matrix
    degrees: np.ndarray
    n_edges: int
    family: str = ""
    shape: tuple = ()

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n_vertices, self.n_vertices):
            raise ValueError("adjacency shape mismatch")
        if (a != a.T).nnz != 0:
            raise ValueError("adjacency must be symmetric")
        row_sums = np.asarray(a.sum(axis=1)).ravel()
        if not np.array_equal(row_sums, self.degrees):
            raise ValueError("degree vector must equal adjacency row sums")
        if 2 * self.n_edges != int(self.degrees.sum()):
            raise ValueError("edge count must be half the degree sum")

    def is_regular(self) -> bool:
        return bool(np.all(self.degrees == self.degrees[0]))

    def edge_list_text(self) -> str:
        """One 'i j' pair per undirected edge, i < j."""
        import scipy.sparse

        coo = scipy.sparse.triu(self.adjacency, k=1).tocoo()
        return "\n".join(f"{i} {j}" for i, j in zip(coo.row, coo.col))


def _product_graph(n: int, m: int, family: str) -> FiniteGraph:
    """Row-major product graph: each vertex (i, j) links down to (i+1, j) and
    right to (i, j+1), cyclically on the torus, edges listed vertex by vertex."""
    _check_shape(family, n, m)
    import scipy.sparse

    i, j = np.divmod(np.arange(n * m), m)
    down, right = (i + 1) % n, (j + 1) % m
    src = np.repeat(i * m + j, 2)
    dst = np.column_stack((down * m + j, i * m + right)).ravel()
    if family != "torus":
        keep = np.column_stack((i + 1 < n, j + 1 < m)).ravel()
        src, dst = src[keep], dst[keep]
    rows, cols = np.concatenate((src, dst)), np.concatenate((dst, src))
    a = scipy.sparse.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)),
                                shape=(n * m, n * m))
    degrees = np.asarray(a.sum(axis=1)).ravel()
    return FiniteGraph(n * m, a, degrees, len(src), family, (n, m))


def grid_graph(n: int, m: int) -> FiniteGraph:
    """Cartesian product of two paths: the n-by-m square grid graph."""
    return _product_graph(n, m, "grid")


def torus_graph(n: int, m: int) -> FiniteGraph:
    """Cartesian product of two cycles: the 4-regular n-by-m torus graph."""
    return _product_graph(n, m, "torus")


def torus_adjacency_eigenvalues(n: int, m: int) -> np.ndarray:
    """All nm adjacency eigenvalues 2cos(2 pi j/n) + 2cos(2 pi l/m)."""
    a = 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    b = 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)
    return (a[:, None] + b[None, :]).ravel()


def _bass_matrix(g: FiniteGraph, u: complex) -> np.ndarray:
    a = g.adjacency.toarray().astype(np.complex128)
    q_diag = (g.degrees - 1).astype(np.complex128)
    return np.eye(g.n_vertices, dtype=np.complex128) - u * a + (u * u) * np.diag(q_diag)


def ihara_zeta_finite(g: FiniteGraph, u) -> complex:
    """Zeta of a finite graph: 1 / ((1-u^2)^(e-v) det(I - Au + (Deg-I)u^2))."""
    u = complex(u)
    if g.n_vertices > _DENSE_CAP:
        raise DomainError(f"dense determinant route is capped at {_DENSE_CAP} vertices")
    ev = g.n_edges - g.n_vertices
    if ev > 0 and abs(1.0 - u * u) < 1e-14:
        raise PoleError("zeta has poles at u = +-1")
    det = complex(np.linalg.det(_bass_matrix(g, u)))
    if abs(det) < 1e-12:
        raise PoleError(f"determinant vanishes at this u (|det| = {abs(det):.3e})")
    return 1.0 / ((1.0 - u * u) ** ev * det)


def _torus_zeta_via_eigenvalues(g: FiniteGraph, u: complex) -> complex:
    n, m = g.shape
    lam = torus_adjacency_eigenvalues(n, m)
    det = complex(np.prod(1.0 - lam * u + 3.0 * u * u))
    ev = g.n_edges - g.n_vertices
    if abs(det) < 1e-12:
        raise PoleError(f"determinant vanishes at this u (|det| = {abs(det):.3e})")
    return 1.0 / ((1.0 - u * u) ** ev * det)


def torus_zeta_eigenroute(g: FiniteGraph, u) -> complex:
    """Eigenvalue-product evaluation of the torus zeta (cross-check route)."""
    if g.family != "torus":
        raise DomainError("eigenvalue route applies to torus graphs only")
    return _torus_zeta_via_eigenvalues(g, complex(u))


def finite_functional_equation_residual(g: FiniteGraph, u) -> float:
    """Relative residual of the regular-graph functional equation.

    For a (q+1)-regular graph with v vertices and e edges,
        zeta(1/(qu)) = q^(2e-v) u^(2e) ((1-u^2)/(q^2 u^2 - 1))^(e-v) zeta(u);
    both sides are rational in u, so the residual is pure roundoff away from
    poles.
    """
    if not g.is_regular():
        raise DomainError("the functional equation needs a regular graph")
    u = complex(u)
    q = int(g.degrees[0]) - 1
    v, e = g.n_vertices, g.n_edges
    z_here = ihara_zeta_finite(g, u)
    z_there = ihara_zeta_finite(g, 1.0 / (q * u))
    ratio = (1.0 - u * u) / (q * q * u * u - 1.0)
    rhs = float(q) ** (2 * e - v) * u ** (2 * e) * ratio ** (e - v) * z_here
    if not (math.isfinite(rhs.real) and math.isfinite(rhs.imag)):
        raise ConditioningError("functional-equation factor overflowed")
    return abs(z_there - rhs) / abs(z_there)


def _spectrum(family: str, n: int, x) -> np.ndarray:
    """The n eigenvalues 2x^2 - 2x cos(theta) of x^2 D_1 - x A_1 on the n-cycle
    (family 'torus', theta = 2 pi j/n) or else on the n-vertex path, where
    Newton finds each root theta_k of sin((n+1)t) - 2x sin(nt) + x^2 sin((n-1)t)
    from k pi/(n+1) (Yueh, Appl. Math. E-Notes 5, 2005).  Roots within half a
    spacing of their starts are distinct, hence the whole spectrum."""
    if family == "torus":
        return 2.0 * x * x - 2.0 * x * np.cos(2.0 * np.pi * np.arange(n) / n)
    start = np.arange(1, n + 1) * (np.pi / (n + 1))
    theta, p, q = start, 1.0 + x * x, 1.0 - x * x
    for _ in range(_NEWTON_STEPS):
        s1, c1, sn, cn = np.sin(theta), np.cos(theta), np.sin(n * theta), np.cos(n * theta)
        a, b = p * c1 - 2.0 * x, q * s1
        step = (sn * a + cn * b) / (n * (cn * a - sn * b) - p * sn * s1 + q * cn * c1)
        theta = theta - step
        if np.max(np.abs(step)) <= 1e-12:
            break
    else:
        raise IterationLimitError(f"Newton did not converge on the {n}-vertex path spectrum")
    if np.max(np.abs(theta - start)) >= 0.5 * np.pi / (n + 1):
        raise BranchAmbiguityError(f"a root of the {n}-vertex path left its bracket")
    return 2.0 * x * x - 2.0 * x * np.cos(theta)


def _check_shape(family: str, n: int, m: int) -> None:
    low = 3 if family == "torus" else 2  # smaller cycles are not simple
    if n < low or m < low:
        raise DomainError(f"the {family} family needs n, m >= {low}")
    if n * m > _VERTEX_CAP:
        raise DomainError(f"{n}x{m} has {n * m} vertices, over the cap of {_VERTEX_CAP}")


def _normalized_log_zeta(family: str, n: int, m: int, u: complex) -> complex:
    """(log zeta)/v of the n-by-m torus (family 'torus') or grid (any other).

    I - uA + u^2(D - I) = (1 - u^2)I + B_n (x) I + I (x) B_m, B = u^2 D_1 - uA_1,
    so log det sums log(1 - u^2 + beta_i + beta_j), a block of rows at a time
    (memory O(n + m)).  Only while every factor stays in the right half-plane
    do the principal logs add up to the branch continuous from u = 0.
    """
    _check_shape(family, n, m)
    if family == "torus" and not is_in_omega(u):
        raise DomainError("torus normalization requires u in the principal region")
    if family == "grid" and not abs(u) < GRID_LIMIT_RADIUS:
        raise DomainError("grid normalization is only claimed for |u| < 1/(4+sqrt(22)) ~ 0.115")
    x = u.real if u.imag == 0.0 else u
    beta_n = _spectrum(family, n, x)
    beta_m = beta_n if m == n else _spectrum(family, m, x)
    rows, log_det = max(1, _CHUNK // m), 0j
    for i in range(0, n, rows):
        f = (1.0 - x * x + beta_n[i:i + rows, None]) + beta_m[None, :]
        if np.any(f.real <= 0.0):
            raise BranchAmbiguityError("a factor left the right half-plane; no coherent log branch")
        # log of the modulus and the argument: numpy's complex log is ~10x slower
        re, im = f.real, f.imag
        log_det += complex(0.5 * np.sum(np.log(re * re + im * im)), np.sum(np.arctan2(im, re)))
    e_minus_v = n * m if family == "torus" else n * m - n - m
    return (-e_minus_v * cmath.log(1.0 - u * u) - log_det) / (n * m)


def normalized_log_zeta(g: FiniteGraph, u) -> complex:
    """(log zeta)/v of a grid or torus graph, with the branch continuous along
    the real-u path from 0, from its family and shape by the separable kernel;
    a factor out of the right half-plane raises rather than wrapping the branch."""
    if len(g.shape) != 2:
        raise DomainError("normalized_log_zeta needs a grid or torus graph")
    n, m = g.shape
    if g.n_edges != 2 * n * m - (0 if g.family == "torus" else n + m):
        raise DomainError("edge count does not match the graph's family and shape")
    return _normalized_log_zeta(g.family, n, m, complex(u))


def convergence_table(family: str, u, sizes, reference=None) -> list[tuple[int, float]]:
    """Errors |normalized_log_zeta(G_s) - log Z(u)| for square members of a family,
    from the family and size alone (no graph is built).

    `reference` defaults to the principal-branch log of the closed-form zeta.
    """
    u, sizes = complex(u), list(sizes)
    if sizes != sorted(set(sizes)):
        raise DomainError("sizes must be strictly increasing")
    if family not in ("grid", "torus"):
        raise DomainError("family must be 'grid' or 'torus'")
    for s in sizes:  # refuse before computing anything
        _check_shape(family, s, s)
    if reference is None:
        from .surface import lift_principal, zeta_tilde

        reference = cmath.log(zeta_tilde(lift_principal(u)))
    return [(s, abs(_normalized_log_zeta(family, s, s, u) - reference)) for s in sizes]


def convergence_table_csv(rows) -> str:
    lines = ["size,error"]
    lines.extend(f"{s},{err:.17g}" for s, err in rows)
    return "\n".join(lines)
