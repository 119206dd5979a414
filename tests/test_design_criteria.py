import numpy as np
import pytest

from conftest import random_orthonormal_rows
from gsample import design
from gsample.design import Criterion, DesignWeights, SampleAllocation
from gsample.exceptions import SingularInformationMatrix


def uniform(n):
    return DesignWeights(np.full(n, 1.0 / n))


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

    @pytest.mark.parametrize("m", [[1.5, 1.5], [np.nan, 2.0], [-1, 3]])
    def test_invalid_quotas_rejected(self, m):
        with pytest.raises(ValueError):
            SampleAllocation(m=m, budget=2)

    def test_integral_float_quotas_accepted(self):
        alloc = SampleAllocation(m=[1.0, 2.0], budget=3)
        assert alloc.m.tolist() == [1, 2] and alloc.m.dtype.kind == "i"

    @pytest.mark.parametrize("text", ["dog", "apple", "exp", "", "ad", "x"])
    def test_unknown_criterion_rejected(self, text):
        with pytest.raises(ValueError, match="unknown criterion"):
            Criterion.parse(text)

    @pytest.mark.parametrize(
        "text, crit", [("a", Criterion.A_OPT), (" D ", Criterion.D_OPT), ("E", Criterion.E_OPT)]
    )
    def test_criterion_letters_parsed(self, text, crit):
        assert Criterion.parse(text) is crit


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


class TestCriterionGradient:
    def test_bandwidth_one_gradient_constant(self):
        # K=1 rows of a connected graph are all 1/sqrt(n)
        rows = np.full((7, 1), 1 / np.sqrt(7))
        for crit in Criterion:
            g = design.criterion_gradient(rows, uniform(7), crit)
            assert np.ptp(g) <= 1e-9 * max(1.0, np.abs(g).max())

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
