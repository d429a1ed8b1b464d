"""Square grid graphs and torus graphs, their zeta functions, and the limit.

The zeta function of a finite graph is the reciprocal of
(1-u^2)^(e-v) det(I - Au + (Deg - I) u^2); for the 4-regular torus the
determinant factors over the explicit Fourier eigenvalues
2 cos(2 pi j / n) + 2 cos(2 pi l / m) of the adjacency operator, giving a
second, structurally independent evaluation route.

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

from .errors import (
    BranchAmbiguityError,
    ConditioningError,
    DomainError,
    PoleError,
)
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

# the banded log-determinant refuses a band array larger than this
_BAND_CAP_BYTES = 256 * 2**20


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


def _product_graph(n: int, m: int, wrap: bool, family: str) -> FiniteGraph:
    """Row-major product graph: each vertex (i, j) links down to (i+1, j) and
    right to (i, j+1), cyclically when `wrap`, edges listed vertex by vertex."""
    import scipy.sparse

    i, j = np.divmod(np.arange(n * m), m)
    down, right = (i + 1) % n, (j + 1) % m
    src = np.repeat(i * m + j, 2)
    dst = np.column_stack((down * m + j, i * m + right)).ravel()
    if not wrap:
        keep = np.column_stack((i + 1 < n, j + 1 < m)).ravel()
        src, dst = src[keep], dst[keep]
    rows, cols = np.concatenate((src, dst)), np.concatenate((dst, src))
    a = scipy.sparse.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)),
                                shape=(n * m, n * m))
    degrees = np.asarray(a.sum(axis=1)).ravel()
    return FiniteGraph(n * m, a, degrees, len(src), family, (n, m))


def grid_graph(n: int, m: int) -> FiniteGraph:
    """Cartesian product of two paths: the n-by-m square grid graph."""
    if n < 2 or m < 2:
        raise DomainError("grid_graph needs n, m >= 2")
    return _product_graph(n, m, False, "grid")


def torus_graph(n: int, m: int) -> FiniteGraph:
    """Cartesian product of two cycles: the 4-regular n-by-m torus graph."""
    if n < 3 or m < 3:
        raise DomainError("torus_graph needs n, m >= 3 (smaller cycles are not simple)")
    return _product_graph(n, m, True, "torus")


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


def _band_dtype(k: int, n_vertices: int, u: complex) -> np.dtype:
    """dtype of the band array at this u, refusing one over the size cap."""
    dtype = np.dtype(np.float64 if u.imag == 0.0 else np.complex128)
    nbytes = (3 * k + 1) * n_vertices * dtype.itemsize
    if nbytes > _BAND_CAP_BYTES:
        raise DomainError(f"band array needs {nbytes >> 20} MiB, "
                          f"over the {_BAND_CAP_BYTES >> 20} MiB cap")
    return dtype


def _log_det_banded(g: FiniteGraph, u: complex) -> complex:
    """log det(I - Au + (Deg-I)u^2) from the pivots of one banded LU.

    In LAPACK band form the diagonal sits on row 2k for bandwidth k.  Where
    the matrix is column diagonally dominant (|u| < 0.215 at degree <= 4)
    elimination swaps no rows and every pivot stays in the right half-plane,
    so their principal logs sum to the branch continuous from u = 0.
    """
    coo = g.adjacency.tocoo()
    k = int(np.abs(coo.row - coo.col).max(initial=0))
    dtype = _band_dtype(k, g.n_vertices, u)
    x = u.real if dtype.kind == "f" else u
    ab = np.zeros((3 * k + 1, g.n_vertices), dtype=dtype, order="F")
    ab[2 * k + coo.row - coo.col, coo.col] = -x * coo.data
    ab[2 * k] = 1.0 + (x * x) * (g.degrees - 1)
    import scipy.linalg

    (gbtrf,) = scipy.linalg.get_lapack_funcs(("gbtrf",), (ab,))
    lu, piv, info = gbtrf(ab, k, k, overwrite_ab=True)
    pivots = lu[2 * k]
    if info != 0 or not np.array_equal(piv, np.arange(g.n_vertices)) or np.any(pivots.real <= 0.0):
        raise BranchAmbiguityError(
            "banded elimination swapped rows or left the right half-plane; no coherent log branch"
        )
    return complex(np.sum(np.log(pivots)))


def normalized_log_zeta(g: FiniteGraph, u) -> complex:
    """(log zeta)/v with the branch continuous along the real-u path from 0.

    Torus graphs use the explicit eigenvalue factors, grids the pivots of a
    banded LU (capped at 256 MiB of band storage); any factor straying out of
    the right half-plane raises rather than silently wrapping the branch.
    """
    u = complex(u)
    v, e = g.n_vertices, g.n_edges
    if g.family == "torus":
        if not is_in_omega(u):
            raise DomainError("torus normalization requires u in the principal region")
        n, m = g.shape
        factors = 1.0 - torus_adjacency_eigenvalues(n, m) * u + 3.0 * u * u
        if np.any(factors.real <= 0.0):
            raise BranchAmbiguityError("an eigenvalue factor left the right half-plane")
        log_det = complex(np.sum(np.log(factors)))
    else:
        if abs(u) >= GRID_LIMIT_RADIUS and g.family == "grid":
            raise DomainError(
                "grid normalization is only claimed for |u| < 1/(4+sqrt(22)) ~ 0.115"
            )
        log_det = _log_det_banded(g, u)
    return (-(e - v) * cmath.log(1.0 - u * u) - log_det) / v


def convergence_table(family: str, u, sizes, reference=None) -> list[tuple[int, float]]:
    """Errors |normalized_log_zeta(G_s) - log Z(u)| for square members of a family.

    `reference` defaults to the principal-branch log of the closed-form zeta.
    """
    u = complex(u)
    if list(sizes) != sorted(set(sizes)):
        raise DomainError("sizes must be strictly increasing")
    if family not in ("grid", "torus"):
        raise DomainError("family must be 'grid' or 'torus'")
    if family == "grid":
        # refuse before building anything: an s-by-s grid has bandwidth s
        for s in sizes:
            _band_dtype(s, s * s, u)
    if reference is None:
        from .surface import lift_principal, zeta_tilde

        reference = cmath.log(zeta_tilde(lift_principal(u)))
    make = grid_graph if family == "grid" else torus_graph
    out = []
    for s in sizes:
        g = make(s, s)
        out.append((s, abs(normalized_log_zeta(g, u) - reference)))
    return out


def convergence_table_csv(rows) -> str:
    lines = ["size,error"]
    lines.extend(f"{s},{err:.17g}" for s, err in rows)
    return "\n".join(lines)
