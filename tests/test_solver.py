import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal_rows
from gsample import design
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

    def test_never_exceeds_uniform_start_e_criterion(self, rng):
        rows = random_orthonormal_rows(10, 3, rng)
        w = design.solve_relaxed(rows, Criterion.E_OPT)
        val = objective(rows, w, Criterion.E_OPT)
        start = objective(rows, DesignWeights(np.full(10, 0.1)), Criterion.E_OPT)
        assert val <= start + 1e-9
        assert (w.p >= 0).all()
        assert w.p.sum() == pytest.approx(1.0, abs=1e-10)

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


class TestProjectSimplex:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_output_on_simplex(self, values):
        out = design.project_simplex(np.array(values))
        assert (out >= 0).all()
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_fixed_point_on_simplex(self, rng):
        p = rng.dirichlet(np.ones(8))
        assert np.allclose(design.project_simplex(p), p, atol=1e-12)

    def test_matches_brute_force_qp(self, rng):
        # tiny instance: dense grid search over the 2-simplex
        v = rng.standard_normal(3)
        out = design.project_simplex(v)
        best, best_d = None, np.inf
        for a in np.linspace(0, 1, 201):
            for b in np.linspace(0, 1 - a, max(2, int(201 * (1 - a)) + 1)):
                q = np.array([a, b, 1 - a - b])
                d = np.sum((q - v) ** 2)
                if d < best_d:
                    best, best_d = q, d
        assert np.sum((out - v) ** 2) <= best_d + 1e-4
