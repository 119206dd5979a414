import warnings

import numpy as np
import pytest

from conftest import random_orthonormal_rows
from gsample import design, graphs, spectral
from gsample.design import Criterion, DesignWeights


def objective(rows, weights, crit):
    return design.criterion_value(design.information_matrix(rows, weights), crit)


class TestSolveRelaxed:
    def test_bandwidth_one_returns_uniform(self):
        rows = np.full((6, 1), 1 / np.sqrt(6))
        w = design.solve_relaxed(rows, Criterion.A_OPT)
        assert np.allclose(w.p, 1.0 / 6, atol=1e-9)

    def test_standard_basis_two_nodes(self):
        rows = np.eye(2)
        w = design.solve_relaxed(rows, Criterion.A_OPT)
        assert np.allclose(w.p, [0.5, 0.5], atol=1e-6)
        assert objective(rows, w, Criterion.A_OPT) == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    def test_random_instance_certificate(self, crit, rng):
        rows = random_orthonormal_rows(8, 3, rng)
        w = design.solve_relaxed(rows, crit)
        val = objective(rows, w, crit)
        start = objective(rows, DesignWeights(np.full(8, 1 / 8)), crit)
        assert val <= start + 1e-12
        gap = design.duality_gap(rows, w, crit)
        assert gap <= 1e-6 * max(1.0, abs(val))

    def test_e_criterion_without_certificate_rejected(self, rng):
        # generic rows: the uniform design is not certified E-optimal
        rows = random_orthonormal_rows(10, 3, rng)
        with pytest.raises(ValueError, match="certified"):
            design.solve_relaxed(rows, Criterion.E_OPT)

    def test_e_criterion_standard_basis(self):
        # balanced weights maximize the smallest eigenvalue of diag(p)
        rows = np.eye(3)
        w = design.solve_relaxed(rows, Criterion.E_OPT)
        assert objective(rows, w, Criterion.E_OPT) == pytest.approx(3.0, rel=1e-3)

    def test_underdetermined_rejected(self, rng):
        with pytest.raises(ValueError):
            design.solve_relaxed(rng.standard_normal((2, 3)), Criterion.A_OPT)


def grid_objective(A, D, gammas, crit):
    """Criterion of A + gamma D at each gamma, by plain eigvalsh; inf if singular."""
    w = np.linalg.eigvalsh(A[None] + gammas[:, None, None] * D[None])
    out = np.full(len(gammas), np.inf)
    ok = w[:, 0] > 0
    w = w[ok]
    out[ok] = -np.log(w).sum(axis=1) if crit is Criterion.D_OPT else (1.0 / w).sum(axis=1)
    return out


class TestPairwiseStep:
    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("scaled_copy", [False, True])
    def test_exact_step_beats_dense_grid(self, crit, k, scaled_copy):
        rng = np.random.default_rng([k, scaled_copy])
        for _ in range(10):
            n = k + int(rng.integers(2, 6))
            rows = random_orthonormal_rows(n, k, rng)
            if scaled_copy:
                rows[1] = rng.uniform(0.2, 0.9) * rows[0]
            p = rng.dirichlet(np.ones(n))
            A = design.information_matrix(rows, DesignWeights(p))
            Ainv = np.linalg.inv(A)
            g = design.criterion_gradient(rows, DesignWeights(p), crit)
            # the solver's swap, the scaled-copy pair, and random pairs
            pairs = [(int(np.argmin(g)), int(np.argmax(g))), (0, 1), (1, 0)]
            pairs += [tuple(int(i) for i in rng.choice(n, 2, replace=False)) for _ in range(3)]
            for j, a in pairs:
                u_j, u_a = rows[j], rows[a]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    gamma = design._pairwise_step(Ainv, u_j, u_a, p[a], crit)
                assert 0.0 <= gamma <= p[a]
                D = np.outer(u_j, u_j) - np.outer(u_a, u_a)
                at_gamma = grid_objective(A, D, np.array([gamma]), crit)[0]
                best = grid_objective(A, D, np.linspace(0.0, p[a], 2001), crit).min()
                assert at_gamma <= best + 1e-9 * abs(best)

    def test_same_node_is_a_zero_step(self, rng):
        rows = random_orthonormal_rows(6, 3, rng)
        A = design.information_matrix(rows, DesignWeights(np.full(6, 1 / 6)))
        for crit in (Criterion.A_OPT, Criterion.D_OPT):
            step = design._pairwise_step(np.linalg.inv(A), rows[2], rows[2], 1 / 6, crit)
            assert step == 0.0


class TestDualityGap:
    def test_closed_form_optimum_has_zero_gap(self):
        rows = np.eye(2)
        gap = design.duality_gap(
            rows, DesignWeights(np.array([0.5, 0.5])), Criterion.A_OPT
        )
        assert abs(gap) <= 1e-9

    def test_bandwidth_one_gap_vanishes(self, rng):
        rows = np.full((5, 1), 1 / np.sqrt(5))
        p = rng.dirichlet(np.ones(5))
        gap = design.duality_gap(rows, DesignWeights(p), Criterion.A_OPT)
        assert abs(gap) <= 1e-9

    def test_uniform_start_has_positive_gap(self, rng):
        rows = random_orthonormal_rows(9, 3, rng)
        gap = design.duality_gap(
            rows, DesignWeights(np.full(9, 1 / 9)), Criterion.A_OPT
        )
        assert gap > 1e-6

    def test_gap_nonnegative(self, rng):
        rows = random_orthonormal_rows(7, 2, rng)
        for _ in range(10):
            p = rng.dirichlet(np.ones(7)) + 1e-3
            p /= p.sum()
            for crit in Criterion:
                assert design.duality_gap(rows, DesignWeights(p), crit) >= -1e-12


def graph_rows(kind, n, k, seed):
    if kind == "rgg":
        g = graphs.random_geometric(n, 0.5, 0.25, seed)
    else:
        g = graphs.watts_strogatz(n, 3, 0.2, seed)
    return spectral.design_rows(spectral.eigendecompose(graphs.laplacian(g)), k)


def lambda_min(rows, P):
    """Smallest eigenvalue of A(p) for each design p (a row of P), by eigvalsh."""
    return np.linalg.eigvalsh(np.einsum("si,ij,ik->sjk", P, rows, rows))[:, 0]


class TestECertificate:
    """On a connected graph's basis the first column is constant, so
    lambda_min(A(p)) <= 1/N for every p and the uniform design is E-optimal."""

    @pytest.mark.parametrize("kind", ["rgg", "ws"])
    @pytest.mark.parametrize("n", [20, 60])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_uniform_is_certified(self, kind, n, k):
        for seed in range(3):
            rows = graph_rows(kind, n, k, seed)
            w = design.solve_relaxed(rows, Criterion.E_OPT)
            uniform = np.full(n, 1.0 / n)
            uniform /= uniform.sum()
            assert np.array_equal(w.p, uniform)
            assert 0.0 <= design.duality_gap(rows, w, Criterion.E_OPT) <= 1e-9 * n

    @pytest.mark.parametrize("kind", ["rgg", "ws"])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_no_design_beats_uniform(self, kind, k):
        n = 20
        rows = graph_rows(kind, n, k, seed=1)
        rng = np.random.default_rng([n, k])
        P = rng.dirichlet(np.full(n, 0.5), size=500)
        i, j = np.triu_indices(n, 1)
        pairs = np.zeros((len(i), n))
        pairs[np.arange(len(i)), i] = pairs[np.arange(len(i)), j] = 0.5
        for designs in (P, pairs):
            assert lambda_min(rows, designs).max() <= (1.0 / n) * (1 + 1e-12)
        assert lambda_min(rows, np.full((1, n), 1.0 / n))[0] == pytest.approx(1.0 / n)

    def test_gap_bounds_suboptimality_on_generic_rows(self, rng):
        # no certificate here, but gap >= f(p) - f* >= f(p) - f(best draw)
        rows = random_orthonormal_rows(10, 3, rng)
        P = rng.dirichlet(np.ones(10), size=500)
        f_best = 1.0 / lambda_min(rows, P).max()
        uniform = DesignWeights(np.full(10, 0.1))
        gap = design.duality_gap(rows, uniform, Criterion.E_OPT)
        assert gap >= objective(rows, uniform, Criterion.E_OPT) - f_best
