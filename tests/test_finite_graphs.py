"""Finite grid/torus graphs: structure, zeta routes, duality, convergence."""

import cmath
import dataclasses
import math
import random
import time

import numpy as np
import pytest
import scipy.sparse

from gridzeta import finite_graphs
from gridzeta.errors import BranchAmbiguityError, DomainError, PoleError, PrecisionError
from gridzeta.finite_graphs import (
    GRID_LIMIT_RADIUS,
    FiniteGraph,
    convergence_table,
    convergence_table_csv,
    finite_functional_equation_residual,
    grid_graph,
    ihara_zeta_finite,
    normalized_log_zeta,
    torus_adjacency_eigenvalues,
    torus_graph,
    torus_zeta_eigenroute,
)


def _loop_adjacency(n, m, wrap):
    """Reference: edges vertex by vertex from a double loop, as a CSR matrix."""
    idx = lambda i, j: i * m + j
    edges = []
    for i in range(n):
        for j in range(m):
            if wrap or i + 1 < n:
                edges.append((idx(i, j), idx((i + 1) % n, j)))
            if wrap or j + 1 < m:
                edges.append((idx(i, j), idx(i, (j + 1) % m)))
    rows = [a for a, _ in edges] + [b for _, b in edges]
    cols = [b for _, b in edges] + [a for a, _ in edges]
    ones = np.ones(len(rows), dtype=np.int64)
    return scipy.sparse.csr_matrix((ones, (rows, cols)), shape=(n * m, n * m)), len(edges)


class TestStructure:
    @pytest.mark.parametrize("shape", [(3, 3), (3, 7), (7, 3), (4, 6), (12, 12)])
    @pytest.mark.parametrize("make, wrap", [(grid_graph, False), (torus_graph, True)])
    def test_matches_loop_construction(self, shape, make, wrap):
        g = make(*shape)
        ref, n_edges = _loop_adjacency(*shape, wrap)
        assert g.n_edges == n_edges
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(g.adjacency, name), getattr(ref, name))
        assert g.edge_list_text() == FiniteGraph(
            g.n_vertices, ref, g.degrees, n_edges
        ).edge_list_text()

    def test_torus_3x3(self):
        g = torus_graph(3, 3)
        assert g.n_vertices == 9
        assert g.n_edges == 18
        assert set(g.degrees.tolist()) == {4}

    def test_grid_2x2_is_square(self):
        g = grid_graph(2, 2)
        assert g.n_vertices == 4
        assert g.n_edges == 4
        assert set(g.degrees.tolist()) == {2}

    def test_grid_3x3_degree_multiset(self):
        g = grid_graph(3, 3)
        degs = sorted(g.degrees.tolist())
        assert degs == [2, 2, 2, 2, 3, 3, 3, 3, 4]

    def test_torus_edge_count(self):
        g = torus_graph(4, 6)
        assert g.n_edges == 2 * 24

    def test_size_bounds(self):
        with pytest.raises(DomainError):
            grid_graph(1, 5)
        with pytest.raises(DomainError):
            torus_graph(2, 4)

    def test_edge_list_export(self):
        g = grid_graph(2, 2)
        lines = g.edge_list_text().splitlines()
        assert len(lines) == 4
        assert all(len(line.split()) == 2 for line in lines)


class TestZetaRoutes:
    def test_zeta_at_zero(self):
        for g in (grid_graph(3, 4), torus_graph(3, 3)):
            assert abs(ihara_zeta_finite(g, 0) - 1) < 1e-14

    def test_torus_det_equals_eigen_product(self):
        g = torus_graph(4, 4)
        u = 0.1
        assert abs(ihara_zeta_finite(g, u) - torus_zeta_eigenroute(g, u)) < 1e-12

    def test_torus_routes_random_u(self):
        rng = random.Random(41)
        g = torus_graph(3, 5)
        for _ in range(10):
            u = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
            z1 = ihara_zeta_finite(g, u)
            z2 = torus_zeta_eigenroute(g, u)
            assert abs(z1 - z2) / abs(z1) < 1e-10

    def test_four_cycle_against_explicit_product(self):
        # grid(2,2) is a 4-cycle: eigenvalues 2, 0, 0, -2 and unit degrees q=1
        g = grid_graph(2, 2)
        u = 0.3
        det = (1 - 2 * u + u * u) * (1 + 2 * u + u * u) * (1 + u * u) ** 2
        expected = 1.0 / det  # e == v so no (1-u^2) prefactor
        assert abs(ihara_zeta_finite(g, u) - expected) < 1e-13

    def test_real_coefficients_conjugation(self):
        g = torus_graph(3, 4)
        u = 0.12 + 0.07j
        z1 = ihara_zeta_finite(g, u.conjugate())
        z2 = ihara_zeta_finite(g, u).conjugate()
        assert abs(z1 - z2) < 1e-12 * abs(z2)

    def test_pole_detection(self):
        g = torus_graph(3, 3)
        with pytest.raises(PoleError):
            ihara_zeta_finite(g, 1.0)


class TestFunctionalEquation:
    def test_spec_examples(self):
        assert finite_functional_equation_residual(torus_graph(4, 4), 0.1) < 1e-8
        assert finite_functional_equation_residual(torus_graph(3, 5), 0.05 + 0.02j) < 1e-8

    def test_prefactor_exponent(self):
        g = torus_graph(4, 5)
        v, e = g.n_vertices, g.n_edges
        assert 2 * e - v == 3 * 20
        assert (e - v) == 20

    def test_all_test_tori_random_u(self):
        rng = random.Random(43)
        for shape in ((3, 3), (4, 4), (3, 5), (6, 6)):
            g = torus_graph(*shape)
            done = 0
            while done < 10:
                u = complex(rng.uniform(0.05, 0.3), rng.uniform(-0.2, 0.2))
                if rng.random() < 0.5:
                    u = -u
                try:
                    r = finite_functional_equation_residual(g, u)
                except PoleError:
                    continue
                done += 1
                assert r < 1e-8, (shape, u)

    def test_irregular_rejected(self):
        with pytest.raises(DomainError):
            finite_functional_equation_residual(grid_graph(3, 3), 0.1)


class TestNormalizedLogZeta:
    def test_zero(self):
        assert normalized_log_zeta(torus_graph(4, 4), 0) == 0
        assert normalized_log_zeta(grid_graph(4, 4), 0) == 0

    def test_torus_against_quadrature(self):
        from gridzeta.oracles import log_det_torus_quadrature

        u = 0.1
        ref = -cmath.log(1 - u * u) - log_det_torus_quadrature(u)
        val = normalized_log_zeta(torus_graph(32, 32), u)
        assert abs(val - ref) < 1e-6

    def test_grid_monotone_improvement(self):
        from gridzeta.surface import lift_principal, zeta_tilde

        u = 0.1
        ref = cmath.log(zeta_tilde(lift_principal(u)))
        e8 = abs(normalized_log_zeta(grid_graph(8, 8), u) - ref)
        e32 = abs(normalized_log_zeta(grid_graph(32, 32), u) - ref)
        assert e32 < e8

    def test_grid_radius_guard(self):
        with pytest.raises(DomainError):
            normalized_log_zeta(grid_graph(4, 4), GRID_LIMIT_RADIUS + 0.01)

    def test_torus_region_guard(self):
        with pytest.raises(DomainError):
            normalized_log_zeta(torus_graph(4, 4), 0.7)

    def test_matches_direct_log_small(self):
        # on a small graph the normalized value equals log(zeta)/v directly
        g = torus_graph(3, 3)
        u = 0.08
        z = ihara_zeta_finite(g, u)
        assert abs(normalized_log_zeta(g, u) - cmath.log(z) / 9) < 1e-12

    def test_needs_a_labelled_product_shape(self):
        g = torus_graph(4, 4)
        with pytest.raises(DomainError, match="grid or torus"):
            normalized_log_zeta(FiniteGraph(g.n_vertices, g.adjacency, g.degrees, g.n_edges), 0.1)
        with pytest.raises(DomainError, match="edge count"):
            normalized_log_zeta(dataclasses.replace(g, family=""), 0.1)

    def test_grid_complex_u_pivot_route(self):
        # complex u takes the elimination-pivot branch of the grid route
        g = grid_graph(4, 4)
        u = 0.05 + 0.02j
        z = ihara_zeta_finite(g, u)
        assert abs(normalized_log_zeta(g, u) - cmath.log(z) / 16) < 1e-12


def _dense_slogdet_log_zeta(g, u):
    """v * log zeta of a grid from a dense Bass matrix reduced by slogdet."""
    a = g.adjacency.toarray()
    bass = np.eye(g.n_vertices) - u * a + u * u * np.diag(g.degrees - 1)
    sign, logabs = np.linalg.slogdet(bass)
    return -(g.n_edges - g.n_vertices) * cmath.log(1 - u * u) - (logabs + 1j * cmath.phase(sign))


_EDGE = 0.999 * GRID_LIMIT_RADIUS


class TestBandedGridKernel:
    @pytest.mark.parametrize("shape", [(3, 7), (7, 3), (12, 12)])
    @pytest.mark.parametrize(
        "u",
        [0.1, _EDGE, -_EDGE, 0.05 + 0.08j, cmath.rect(_EDGE, 0.7), cmath.rect(_EDGE, -2.5),
         _EDGE * 1j],
    )
    def test_matches_dense_slogdet(self, shape, u):
        g = grid_graph(*shape)
        diff = g.n_vertices * normalized_log_zeta(g, u) - _dense_slogdet_log_zeta(g, u)
        assert abs(diff.real) < 1e-10
        assert abs(math.remainder(diff.imag, 2 * math.pi)) < 1e-10

    def test_real_u_gives_real_value(self):
        assert normalized_log_zeta(grid_graph(5, 9), -0.1).imag == 0.0

    @pytest.mark.parametrize("shape, u", [((6, 6), 0.5), ((3, 3), -0.7), ((3, 3), -0.9 - 0.9j)])
    def test_branch_loss_is_refused(self, shape, u):
        # without the grid label the radius guard is off; at these u the matrix
        # is not diagonally dominant: on 3x3 at -0.7 elimination swaps rows
        # with every pivot positive, at -0.9-0.9i it swaps none but a pivot
        # leaves the right half-plane
        g = dataclasses.replace(grid_graph(*shape), family="")
        with pytest.raises(BranchAmbiguityError):
            normalized_log_zeta(g, u)

    def test_root_outside_bracket_is_refused(self):
        # unlabeled, so the radius guard is off; at u = 0.9 Newton converges on
        # the 8-vertex path, but to roots several spacings from their starts
        g = dataclasses.replace(grid_graph(8, 8), family="")
        with pytest.raises(BranchAmbiguityError, match="bracket"):
            normalized_log_zeta(g, 0.9)

    def test_newton_must_converge(self, monkeypatch):
        monkeypatch.setattr(finite_graphs, "_NEWTON_STEPS", 1)
        with pytest.raises(PrecisionError, match="Newton"):
            normalized_log_zeta(grid_graph(8, 8), 0.1)

    @pytest.mark.parametrize("make", [grid_graph, torus_graph])
    def test_vertex_cap_refuses_quickly(self, make):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="cap"):
            make(5000, 5000)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("family", ["grid", "torus"])
    def test_convergence_table_refuses_before_building(self, monkeypatch, family):
        def no_build(n, m):
            raise AssertionError("a graph was built before the size check")

        monkeypatch.setattr(finite_graphs, "grid_graph", no_build)
        monkeypatch.setattr(finite_graphs, "torus_graph", no_build)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="cap"):
            convergence_table(family, 0.05 + 0.05j, [8, 5000])
        assert time.perf_counter() - start < 0.5


class TestConvergenceTable:
    def test_torus_first_step_halves(self):
        rows = dict(convergence_table("torus", 0.1, [8, 16]))
        assert rows[16] < rows[8] / 2

    def test_torus_error_small_at_64(self):
        rows = dict(convergence_table("torus", 0.1, [64]))
        assert rows[64] < 1e-6

    def test_grid_decreasing(self):
        rows = dict(convergence_table("grid", 0.11, [16, 32]))
        assert rows[32] < rows[16]

    def test_csv_format(self):
        rows = convergence_table("torus", 0.1, [8, 16])
        text = convergence_table_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "size,error"
        assert len(lines) == 3

    def test_size_validation(self):
        with pytest.raises(DomainError):
            convergence_table("torus", 0.1, [16, 8])

    def test_eigenvalue_helper(self):
        lam = torus_adjacency_eigenvalues(4, 4)
        assert len(lam) == 16
        assert abs(lam.max() - 4.0) < 1e-14
        adj = torus_graph(4, 4).adjacency.toarray()
        eig = np.sort(np.linalg.eigvalsh(adj.astype(float)))
        assert np.allclose(np.sort(lam), eig, atol=1e-10)


class TestBoundaryTerm:
    """The grid error is a boundary term c(u)/n plus O(1/n^2), so n * error
    moves by half as much from 512 to 1024 as from 256 to 512."""

    @pytest.mark.parametrize("u", [0.1, 0.05 + 0.08j, 0.11j])
    def test_second_order_correction_halves(self, u):
        from gridzeta.surface import lift_principal, zeta_tilde

        ref = cmath.log(zeta_tilde(lift_principal(u)))
        c = [n * (normalized_log_zeta(grid_graph(n, n), u) - ref) for n in (256, 512, 1024)]
        ratio = (c[1] - c[0]) / (c[2] - c[1])
        assert abs(ratio - 2.0) <= 0.2, ratio

    def test_convergence_table_leaves_scipy_unloaded(self):
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(os.path.abspath(finite_graphs.__file__)))
        code = ("import sys; from gridzeta.finite_graphs import convergence_table; "
                "convergence_table('grid', 0.1, [8, 16]); "
                "print([m for m in sys.modules if m.startswith('scipy')])")
        res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert res.stdout.strip() == "[]"
