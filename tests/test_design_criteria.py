import re

import numpy as np
import pytest

from conftest import random_orthonormal_rows
from gsample import design, spectral
from gsample.design import Criterion, DesignWeights, SampleAllocation
from gsample.exceptions import SingularInformationMatrix


def uniform(n):
    return DesignWeights(np.full(n, 1.0 / n))


def pipeline(basis, c):
    """Weights, quotas and diagnostics of `design_pipeline` at K = 5, M = 20."""
    r = design.design_pipeline(basis, 5, 20, c, seed=0)
    return r.weights.p, r.allocation.m, r.diagnostics


# every entry point that takes a criterion, on a basis and its K = 5 design rows
CRITERION_USES = {
    "criterion_value": lambda basis, rows, c: design.criterion_value(rows.T @ rows, c),
    "criterion_gradient": lambda basis, rows, c: design.criterion_gradient(
        rows, uniform(len(rows)), c),
    "duality_gap": lambda basis, rows, c: design.duality_gap(rows, uniform(len(rows)), c),
    "solve_relaxed": lambda basis, rows, c: design.solve_relaxed(rows, c).p,
    "design_pipeline": lambda basis, rows, c: pipeline(basis, c),
}


class TestValidation:
    @pytest.mark.parametrize(
        "p",
        [
            [np.nan, 1.0],
            [np.inf, 1.0],
            [-0.5, 1.5],
            [0.5, 0.6],
            [[0.5, 0.5]],
        ],
    )
    def test_invalid_weights_rejected(self, p):
        with pytest.raises(ValueError):
            DesignWeights(np.array(p))

    @pytest.mark.parametrize(
        "m",
        [
            [1.5, 1.5], [np.nan, 2.0], [-1, 3],
            ["1", "1", 0], [True, True], np.array([1 + 0j, 1 + 0j]),
            np.array([1, 1], dtype=object),
        ],
    )
    def test_invalid_quotas_rejected(self, m):
        with pytest.raises(ValueError):
            SampleAllocation(m=m, budget=2)

    @pytest.mark.parametrize("m, budget", [([[1, 1], [1, 1]], 4), (5, 5)])
    def test_non_vector_quotas_rejected(self, m, budget):
        with pytest.raises(ValueError, match="quotas must be a vector"):
            SampleAllocation(m=m, budget=budget)

    def test_integral_float_quotas_accepted(self):
        alloc = SampleAllocation(m=[1.0, 2.0], budget=3)
        assert alloc.m.tolist() == [1, 2] and alloc.m.dtype.kind == "i"

    @pytest.mark.parametrize("budget", [True, 2.0, "2", None])
    def test_non_integer_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be an integer"):
            SampleAllocation(m=[1, 1], budget=budget)

    def test_numpy_integer_budget_accepted(self):
        assert SampleAllocation(m=[1, 1], budget=np.int64(2)).m.tolist() == [1, 1]

    @pytest.mark.parametrize("text", ["dog", "apple", "exp", "", "ad", "x"])
    def test_unknown_criterion_rejected(self, text):
        with pytest.raises(ValueError, match="unknown criterion"):
            Criterion(text)

    @pytest.mark.parametrize("value", [None, 5, 2.5, True, b"a"])
    def test_non_string_criterion_rejected(self, value):
        with pytest.raises(ValueError, match=f"unknown criterion {re.escape(repr(value))}; "
                                             "expected a, d or e"):
            Criterion(value)

    @pytest.mark.parametrize("text, crit", [
        ("a", Criterion.A_OPT), (" D ", Criterion.D_OPT), ("E", Criterion.E_OPT),
        ("A", Criterion.A_OPT), ("d", Criterion.D_OPT), ("\te\n", Criterion.E_OPT),
        (Criterion.E_OPT, Criterion.E_OPT),
    ])
    def test_criterion_letters_parsed(self, text, crit):
        assert Criterion(text) is crit

    @pytest.mark.parametrize("use", CRITERION_USES)
    def test_entry_points_take_the_letter_and_refuse_the_rest(self, geometric_basis, use):
        # a criterion that was not a Criterion used to be solved as A
        rows = spectral.design_rows(geometric_basis, 5)
        run = CRITERION_USES[use]
        expected = run(geometric_basis, rows, Criterion.D_OPT)
        for text in ("d", " D "):
            np.testing.assert_equal(run(geometric_basis, rows, text), expected)
        for value in ("zzz", None, 5):
            with pytest.raises(ValueError, match=f"unknown criterion {value!r}"):
                run(geometric_basis, rows, value)


class TestInformationMatrix:
    def test_uniform_weights_give_scaled_identity(self, rng):
        rows = random_orthonormal_rows(8, 3, rng)
        A = design.information_matrix(rows, uniform(8))
        assert np.allclose(A, np.eye(3) / 8, atol=1e-12)

    def test_point_mass_gives_rank_one(self, rng):
        rows = random_orthonormal_rows(6, 2, rng)
        p = np.zeros(6)
        p[4] = 1.0
        A = design.information_matrix(rows, DesignWeights(p))
        assert np.allclose(A, np.outer(rows[4], rows[4]), atol=1e-12)
        assert np.linalg.matrix_rank(A) <= 1

    def test_matches_naive_summation(self, rng):
        rows = rng.standard_normal((5, 2))
        p = rng.dirichlet(np.ones(5))
        A = design.information_matrix(rows, DesignWeights(p))
        expected = sum(
            p[i] * np.outer(rows[i], rows[i]) for i in range(5)
        )
        assert np.allclose(A, expected, atol=1e-14)

    def test_dimension_mismatch(self, rng):
        rows = random_orthonormal_rows(6, 2, rng)
        with pytest.raises(ValueError):
            design.information_matrix(rows, uniform(5))


class TestCriterionValue:
    def test_identity_matrix(self):
        A = np.eye(4)
        assert design.criterion_value(A, Criterion.D_OPT) == pytest.approx(0.0)
        assert design.criterion_value(A, Criterion.E_OPT) == pytest.approx(1.0)
        assert design.criterion_value(A, Criterion.A_OPT) == pytest.approx(4.0)

    def test_diagonal_matrix(self):
        A = np.diag([2.0, 0.5])
        assert design.criterion_value(A, Criterion.D_OPT) == pytest.approx(0.0)
        assert design.criterion_value(A, Criterion.E_OPT) == pytest.approx(2.0)
        assert design.criterion_value(A, Criterion.A_OPT) == pytest.approx(2.5)

    def test_matches_eigenvalue_oracle(self, rng):
        B = rng.standard_normal((3, 3))
        A = B @ B.T + 0.5 * np.eye(3)
        lam = np.linalg.eigvalsh(A)
        assert design.criterion_value(A, Criterion.D_OPT) == pytest.approx(
            -np.sum(np.log(lam)), rel=1e-12
        )
        assert design.criterion_value(A, Criterion.E_OPT) == pytest.approx(
            1.0 / lam.min(), rel=1e-12
        )
        assert design.criterion_value(A, Criterion.A_OPT) == pytest.approx(
            np.sum(1.0 / lam), rel=1e-12
        )

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularInformationMatrix):
            design.criterion_value(np.diag([1.0, 0.0]), Criterion.A_OPT)

    @pytest.mark.parametrize("crit", list(Criterion))
    @pytest.mark.parametrize("A", [
        pytest.param([[np.nan]], id="nan"),
        pytest.param([[np.inf, 0.0], [0.0, 1.0]], id="inf"),
        pytest.param(np.zeros((0, 0)), id="empty"),
        pytest.param(np.ones((2, 3)), id="not-square"),
        pytest.param(np.ones(3), id="1-D"),
    ])
    def test_non_finite_or_non_square_matrix_rejected(self, A, crit):
        with pytest.raises(ValueError, match="must be finite, square and non-empty"):
            design.criterion_value(A, crit)


class TestCriterionGradient:
    def test_bandwidth_one_gradient_constant(self):
        # K=1 rows of a connected graph are all 1/sqrt(n)
        rows = np.full((7, 1), 1 / np.sqrt(7))
        for crit in (Criterion.A_OPT, Criterion.D_OPT):
            g = design.criterion_gradient(rows, uniform(7), crit)
            assert np.ptp(g) <= 1e-9 * max(1.0, np.abs(g).max())

    def test_e_criterion_has_no_gradient(self):
        rows = np.full((7, 1), 1 / np.sqrt(7))
        with pytest.raises(ValueError, match="no gradient"):
            design.criterion_gradient(rows, uniform(7), Criterion.E_OPT)

    def test_standard_basis_a_criterion(self):
        rows = np.eye(2)
        g = design.criterion_gradient(
            rows, DesignWeights(np.array([0.5, 0.5])), Criterion.A_OPT
        )
        assert np.allclose(g, [-4.0, -4.0], atol=1e-12)

    @pytest.mark.parametrize("crit", [Criterion.D_OPT, Criterion.A_OPT])
    def test_matches_finite_differences(self, crit, rng):
        for _ in range(10):
            n, k = 9, 3
            rows = random_orthonormal_rows(n, k, rng)
            p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
            p /= p.sum()
            g = design.criterion_gradient(rows, DesignWeights(p), crit)
            h = 1e-5
            for i in range(0, n, 3):
                up, dn = p.copy(), p.copy()
                up[i] += h
                dn[i] -= h
                # unnormalized perturbation: evaluate the criterion off-simplex
                A_up = rows.T @ (up[:, None] * rows)
                A_dn = rows.T @ (dn[:, None] * rows)
                fd = (
                    design.criterion_value(A_up, crit)
                    - design.criterion_value(A_dn, crit)
                ) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestConvexityAndInvariance:
    @pytest.mark.parametrize("crit", [Criterion.D_OPT, Criterion.A_OPT])
    def test_objective_convex_along_segments(self, crit, rng):
        rows = random_orthonormal_rows(10, 3, rng)
        for _ in range(20):
            p = rng.dirichlet(np.ones(10)) * 0.9 + 0.01
            q = rng.dirichlet(np.ones(10)) * 0.9 + 0.01
            p, q = p / p.sum(), q / q.sum()
            lam = rng.uniform()
            mid = lam * p + (1 - lam) * q
            val = design.criterion_value(
                design.information_matrix(rows, DesignWeights(mid)), crit
            )
            vp = design.criterion_value(
                design.information_matrix(rows, DesignWeights(p)), crit
            )
            vq = design.criterion_value(
                design.information_matrix(rows, DesignWeights(q)), crit
            )
            assert val <= lam * vp + (1 - lam) * vq + 1e-9

    def test_criterion_invariant_under_right_rotation(self, rng):
        rows = random_orthonormal_rows(12, 4, rng)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        p = DesignWeights(rng.dirichlet(np.ones(12)) * 0.9 + 0.1 / 12)
        p = DesignWeights(p.p / p.p.sum())
        for crit in Criterion:
            a = design.criterion_value(design.information_matrix(rows, p), crit)
            b = design.criterion_value(design.information_matrix(rows @ q, p), crit)
            assert a == pytest.approx(b, rel=1e-9)
