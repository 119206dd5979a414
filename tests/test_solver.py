import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal_rows
from gsample import design, graphs, spectral
from gsample.design import Criterion, DesignWeights
from gsample.exceptions import SingularInformationMatrix


def objective(rows, weights, crit):
    return design.criterion_value(design.information_matrix(rows, weights), crit)


def eye_with(value):
    """np.eye(3) with `value` at [0, 0]."""
    rows = np.eye(3)
    rows[0, 0] = value
    return rows


BAD_SHAPES = [
    pytest.param(np.ones((3, 0)), id="no-column"),
    pytest.param(np.ones((0, 0)), id="empty"),
    pytest.param(np.ones(3), id="1-D"),
]
THIRDS = DesignWeights(np.full(3, 1 / 3))
SHAPE_USES = {
    "information_matrix": lambda rows: design.information_matrix(rows, THIRDS),
    "criterion_gradient": lambda rows: design.criterion_gradient(rows, THIRDS, Criterion.A_OPT),
    "allocate_from_weights": lambda rows: design.allocate_from_weights(
        rows, THIRDS, 3, design.quantize_raw(THIRDS, 3, 0)),
    "quantized_information_matrix": lambda rows: design.quantized_information_matrix(
        rows, design.SampleAllocation(m=[1, 1, 1], budget=3)),
    **{f"duality_gap-{crit.value}": lambda rows, crit=crit: design.duality_gap(rows, THIRDS, crit)
       for crit in Criterion},
}
# the entry points that factor a matrix of the rows; information_matrix only forms it
FINITE_USES = {use: fn for use, fn in SHAPE_USES.items() if use != "information_matrix"}


class TestSolveRelaxed:
    def test_bandwidth_one_returns_uniform(self):
        # the certified uniform design comes back as is, not the K-row start
        for rows in (np.full((6, 1), 1 / np.sqrt(6)), np.eye(3), np.vstack([np.eye(2)] * 2)):
            uniform = np.full(len(rows), 1.0 / len(rows))
            uniform /= uniform.sum()
            for crit in (Criterion.A_OPT, Criterion.D_OPT):
                assert np.array_equal(design.solve_relaxed(rows, crit).p, uniform)

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

    @pytest.mark.parametrize("crit", list(Criterion))
    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],  # an all-zero column
        [[1.0, 1e-9], [2.0, 0.0], [3.0, 0.0]],  # sigma_min ~ 3e-19
    ])
    def test_singular_rows_rejected_up_front(self, rows, crit):
        with pytest.raises(SingularInformationMatrix, match="sigma_min"):
            design.solve_relaxed(np.array(rows), crit)

    @pytest.mark.parametrize("crit", list(Criterion))
    @pytest.mark.parametrize("rows", [
        pytest.param(eye_with(np.nan), id="nan"),
        pytest.param(eye_with(np.inf), id="inf"),
        pytest.param(eye_with(-np.inf), id="-inf"),
        *BAD_SHAPES,
    ])
    def test_non_finite_rows_rejected(self, rows, crit):
        with pytest.raises(ValueError, match="finite"):
            design.solve_relaxed(rows, crit)

    @pytest.mark.parametrize("use", FINITE_USES)
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_refused_by_every_entry_point(self, value, use):
        # no eigensolver sees a non-finite matrix, whose spectrum LAPACK may
        # return as NaN, as finite garbage or as a convergence error
        rows = np.eye(3)
        rows[1] = value
        with pytest.raises(ValueError, match="finite"):
            FINITE_USES[use](rows)

    @pytest.mark.parametrize("use", ["allocate_from_weights", "quantized_information_matrix"])
    def test_infinity_beside_a_zero_refused_without_a_warning(self, use):
        # inf * 0 in the sampled Gram would warn before the Gram is refused
        rows = np.eye(3)
        rows[1, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                FINITE_USES[use](rows)

    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    def test_uncertified_stop_raises(self, crit, rng, monkeypatch):
        rows = random_orthonormal_rows(20, 4, rng)  # its K-row start is not optimal
        with monkeypatch.context() as m:
            m.setattr(design, "_newton_step", lambda *args: False)
            with pytest.raises(ValueError, match=r"\(neither Newton step moved\): "
                               r"duality gap \S+ above its bound \S+"):
                design.solve_relaxed(rows, crit)
        monkeypatch.setattr(design, "_FW_MAX_ITER", 1)
        with pytest.raises(ValueError, match=r"\(iteration cap 1 reached\)"):
            design.solve_relaxed(rows, crit)

    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    def test_failed_factorization_never_certifies(self, crit, rng, monkeypatch):
        # a stop bound taken from a failed factorization would be +inf and
        # pass any gap; the solve must end uncertified instead
        rows = random_orthonormal_rows(12, 3, rng)

        def cholesky(A):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        with pytest.raises(ValueError, match=r"\(information matrix not positive definite\)"):
            design.solve_relaxed(rows, crit)

    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    def test_one_factorization_per_iteration(self, crit, rng, monkeypatch):
        # each iteration factors A once and takes one gradient; the uniform
        # design's certificate check takes one gradient before the first
        rows = random_orthonormal_rows(20, 4, rng)
        calls = {"cholesky": 0, "gradient": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(design, "_gradient", counted("gradient", design._gradient))
        design.solve_relaxed(rows, crit)
        assert calls["cholesky"] >= 2
        assert calls["cholesky"] == calls["gradient"] - 1

    @pytest.mark.parametrize("use", SHAPE_USES)
    @pytest.mark.parametrize("rows", BAD_SHAPES)
    def test_rows_of_bad_shape_rejected_by_every_entry_point(self, rows, use):
        # the shape rule solve_relaxed states, before any indexing
        with pytest.raises(ValueError, match="2-D array with a column"):
            SHAPE_USES[use](rows)

    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    @pytest.mark.parametrize("seed", range(5))
    def test_duplicated_support_row_still_certified(self, crit, seed):
        # Newton steps run every iteration, on supports that can hold the copy
        # and its original, whose equal KKT rows make that system singular
        rows = random_orthonormal_rows(8, 3, np.random.default_rng(seed))
        heaviest = int(np.argmax(design.solve_relaxed(rows, crit).p))
        rows = np.vstack([rows, rows[heaviest]])
        w = design.solve_relaxed(rows, crit)
        val = objective(rows, w, crit)
        assert design.duality_gap(rows, w, crit) <= 1e-6 * max(1.0, abs(val))


def einsum_gradient(rows, Ainv, crit):
    """The gradient as an einsum contraction, the form `_gradient` replaced."""
    B = Ainv if crit is Criterion.D_OPT else Ainv @ Ainv
    return -np.einsum("ij,jk,ik->i", rows, B, rows)


def pairwise_step(Ainv, u_j, u_a, hi, criterion):
    """Exact minimizer on [0, hi] of gamma -> crit(A + gamma (u_j u_j^T - u_a u_a^T)).

    The swap is a rank-2 update. With x = A^-1 u_j, y = A^-1 u_a and the 2x2
    Gram entries g11 = u_j.x, g22 = u_a.y, g12 = u_j.y, Sylvester's identity
    gives det ratio q(gamma) = 1 + e gamma - d gamma^2 (e = g11 - g22,
    d = g11 g22 - g12^2). D: -log q is minimized at e / (2d). A: by Woodbury
    tr((A + ...)^-1) = tr(A^-1) + (b gamma + c gamma^2) / q(gamma), stationary
    at the positive root of (bd + ce) gamma^2 + 2c gamma + b = 0. The
    criterion is convex along the segment, so returns 0 when the swap does not
    descend at gamma = 0, and hi when it descends all the way.
    """
    x, y = Ainv @ u_j, Ainv @ u_a
    g11, g22, g12 = u_j @ x, u_a @ y, u_j @ y
    e = g11 - g22
    d = g11 * g22 - g12 * g12
    if criterion is Criterion.D_OPT:
        if e <= 0:
            return 0.0
        return float(hi if e >= 2.0 * d * hi else e / (2.0 * d))
    h11, h22, h12 = x @ x, y @ y, x @ y
    b = h22 - h11
    if b >= 0:
        return 0.0
    c = g22 * h11 + g11 * h22 - 2.0 * g12 * h12
    disc = c * c - (b * d + c * e) * b
    denom = c + math.sqrt(disc) if disc >= 0 else 0.0
    return float(hi if -b >= denom * hi else -b / denom)


def pairwise_only(rows, crit):
    """Reference solve: pairwise Frank-Wolfe from the uniform design with
    the closed-form `pairwise_step` and no Newton steps."""
    n = rows.shape[0]
    p = np.full(n, 1.0 / n)
    A = rows.T @ (p[:, None] * rows)
    for _ in range(design._FW_MAX_ITER):
        Ainv = np.linalg.inv(A)
        g = einsum_gradient(rows, Ainv, crit)
        f = -np.linalg.slogdet(A)[1] if crit is Criterion.D_OPT else np.trace(Ainv)
        j = int(np.argmin(g))
        if p @ g - g[j] <= design._SOLVER_RTOL * max(1.0, abs(f)):
            break
        support = np.nonzero(p > 1e-15)[0]
        a = int(support[np.argmax(g[support])])
        gamma = pairwise_step(Ainv, rows[j], rows[a], p[a], crit)
        if gamma <= 0:
            break
        p[j] += gamma
        p[a] -= gamma
        A = A + gamma * (np.outer(rows[j], rows[j]) - np.outer(rows[a], rows[a]))
    return DesignWeights(np.maximum(p, 0.0) / np.maximum(p, 0.0).sum())


def factors(A):
    """The `_newton_step` inputs A^-1 and L^-1, for the Cholesky factor L of A."""
    return np.linalg.inv(A), np.linalg.inv(np.linalg.cholesky(A))


def check_newton_step(seed):
    """One `_newton_step` from a random design on at most 3K of N + 3 random
    orthonormal rows: it keeps the weights on the simplex and off the nodes
    outside the support, and either lowers the objective or changes nothing."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 7))
    n = k + int(rng.integers(0, 13))
    rows = random_orthonormal_rows(n + 3, k, rng)
    p = np.zeros(n + 3)
    support = rng.choice(n + 3, size=rng.integers(k, min(n, 3 * k) + 1), replace=False)
    p[support] = rng.dirichlet(np.ones(len(support)))
    A = rows.T @ (p[:, None] * rows)
    if np.linalg.eigvalsh(A)[0] <= 1e-12:
        return
    for crit in (Criterion.A_OPT, Criterion.D_OPT):
        q = p.copy()
        moved = design._newton_step(rows, q, np.nonzero(p)[0], *factors(A), crit)
        assert abs(q.sum() - 1.0) <= 1e-12
        assert (q >= 0).all() and (q[p == 0] == 0).all()
        if moved:
            f0 = design.criterion_value(A, crit)
            after = rows.T @ (q[:, None] * rows)
            assert design.criterion_value(after, crit) <= f0 + 1e-12 * abs(f0)
        else:
            assert np.array_equal(q, p)


row_sets = st.builds(
    lambda seed, k, extra: random_orthonormal_rows(k + extra, k, np.random.default_rng(seed)),
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 24),
)


class TestNewtonSolver:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), k=st.integers(1, 8))
    @example(seed=442406, n=1, k=8)  # cond(A) = 6.4e4: off by 1.05e-12 relative
    def test_gradient_matches_einsum(self, seed, n, k):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n + k, k))
        p = rng.dirichlet(np.ones(n + k))
        Ainv = np.linalg.inv(rows.T @ (p[:, None] * rows))
        for crit in (Criterion.A_OPT, Criterion.D_OPT):
            B = Ainv if crit is Criterion.D_OPT else Ainv @ Ainv
            ref = einsum_gradient(rows, Ainv, crit)
            got = design._gradient(rows, Ainv, crit)
            # both evaluate u^T B u with the same B, so they differ by rounding
            # alone: twice k eps S, the rounding bound of each evaluation
            S = ((np.abs(rows) @ np.abs(B)) * np.abs(rows)).sum(axis=1)
            assert (np.abs(got - ref) <= 2 * k * np.finfo(float).eps * S).all()

    @settings(max_examples=40, deadline=None)
    @given(rows=row_sets)
    def test_no_worse_than_pairwise_only(self, rows):
        for crit in (Criterion.A_OPT, Criterion.D_OPT):
            w = design.solve_relaxed(rows, crit)
            val = objective(rows, w, crit)
            ref = objective(rows, pairwise_only(rows, crit), crit)
            assert val <= ref + 1e-9 * abs(ref)
            assert design.duality_gap(rows, w, crit) <= 1e-6 * max(1.0, abs(val))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    # ill-conditioned starts whose KKT direction sums to more than 1e-12
    # before it is centred
    @example(seed=1348750850)
    @example(seed=1232998535)
    @example(seed=2248551198)
    @example(seed=3648740805)
    def test_newton_step_stays_on_simplex(self, seed):
        check_newton_step(seed)

    def test_newton_step_sweep(self):
        # about 1% of these start points need the line search: a full step
        # would empty a node and leave A singular or the objective higher
        for seed in range(500):
            check_newton_step(seed)

    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    def test_blocked_node_leaves_at_exactly_zero(self, crit):
        # a small weight on a node outside the optimal support: the Newton
        # step's ratio test blocks at that node and empties it
        for seed in range(40):
            rows = random_orthonormal_rows(8, 3, np.random.default_rng(seed))
            optimum = design.solve_relaxed(rows, crit).p
            for off in np.nonzero(optimum == 0)[0]:
                for eps in (1e-3, 1e-2):
                    p = optimum.copy()
                    p[off] = eps
                    p /= p.sum()
                    A = rows.T @ (p[:, None] * rows)
                    assert design._newton_step(rows, p, np.nonzero(p)[0], *factors(A), crit)
                    assert p[off] == 0.0
                    assert abs(p.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    def test_gap_rule_stops_after_a_support_step(self, crit):
        # on these rows a gap stop one support-Newton step short of the
        # optimum leaves A 1.2e-8 above pairwise-only; every step that brings
        # in a node also re-optimizes the support, so the gap rule fires after one
        rows = random_orthonormal_rows(9, 2, np.random.default_rng(298))
        val = objective(rows, design.solve_relaxed(rows, crit), crit)
        ref = objective(rows, pairwise_only(rows, crit), crit)
        assert val <= ref + 1e-9 * abs(ref)

    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    def test_shrinking_a_zero_weight_node_is_no_step(self, crit):
        # at the optimum every node outside the support has a larger
        # gradient, so a step on the support plus that node shrinks it: the
        # ratio test allows only t = 0, which is reported as no step
        for seed in range(10):
            rows = random_orthonormal_rows(8, 3, np.random.default_rng(seed))
            optimum = design.solve_relaxed(rows, crit).p
            A = rows.T @ (optimum[:, None] * rows)
            for off in np.nonzero(optimum == 0)[0]:
                p = optimum.copy()
                S = np.union1d(np.nonzero(p)[0], off)
                assert not design._newton_step(rows, p, S, *factors(A), crit)
                assert np.array_equal(p, optimum)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6), extra=st.integers(1, 18))
    def test_step_brings_in_the_frank_wolfe_vertex(self, seed, k, extra):
        # from a design optimal on its own support but not certified on all
        # rows, a step on the support plus argmin g moves, gives that node
        # weight and does not raise the objective
        rng = np.random.default_rng(seed)
        rows = random_orthonormal_rows(k + extra, k, rng)
        sub = np.sort(rng.choice(k + extra, size=int(rng.integers(k, k + extra + 1)), replace=False))
        assume(np.linalg.eigvalsh(rows[sub].T @ rows[sub])[0] > 1e-6)
        for crit in (Criterion.A_OPT, Criterion.D_OPT):
            p = np.zeros(k + extra)
            p[sub] = design.solve_relaxed(rows[sub], crit).p
            A = rows.T @ (p[:, None] * rows)
            Ainv, Linv = factors(A)
            g = design._gradient(rows, Ainv, crit)
            f = design.criterion_value(A, crit)
            if p @ g - g.min() <= design._SOLVER_RTOL * max(1.0, abs(f)):
                continue
            j = int(np.argmin(g))
            assert design._newton_step(rows, p, np.union1d(np.nonzero(p)[0], j), Ainv, Linv, crit)
            assert p[j] > 0
            assert design.criterion_value(rows.T @ (p[:, None] * rows), crit) <= f

    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    def test_singular_kkt_leaves_p_unchanged(self, crit):
        # two equal rows on the support give two equal KKT rows
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        p = np.array([0.2, 0.3, 0.5])
        A = rows.T @ (p[:, None] * rows)
        q = p.copy()
        assert not design._newton_step(rows, q, np.arange(3), *factors(A), crit)
        assert np.array_equal(q, p)

    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    def test_change_matches_the_objective_difference(self, crit):
        # on well-conditioned matrices, where the difference of two
        # objectives is accurate, _fw_change agrees with it
        rng = np.random.default_rng(7)
        for k in (1, 3, 6):
            B = rng.standard_normal((2 * k, k))
            A = B.T @ B
            C = rng.standard_normal((k, k))
            E = 0.1 * (C + C.T)
            Linv = np.linalg.inv(np.linalg.cholesky(A))
            want = design.criterion_value(A + E, crit) - design.criterion_value(A, crit)
            assert design._fw_change(Linv, E, crit) == pytest.approx(want, rel=1e-8, abs=1e-12)
            assert design._fw_change(Linv, -2.0 * A, crit) == math.inf

    def test_ill_conditioned_square_rows_are_certified(self):
        # six of the rows of a 23 x 6 orthonormal basis, lambda_min(U^T U)
        # about 1e-5: the A-optimal weights are p_i ~ sqrt(c_i), c_i the
        # squared norm of column i of U^-1. Near that optimum a Newton step
        # lowers tr(A^-1) ~ 4e5 by about 3e-8, below the rounding error of
        # tr(A^-1) itself, and the solve must still reach its certificate
        rng = np.random.default_rng(407891878)
        rows = random_orthonormal_rows(23, 6, rng)
        U = rows[np.sort(rng.choice(23, size=int(rng.integers(6, 24)), replace=False))]
        assert U.shape == (6, 6)
        assert np.linalg.eigvalsh(U.T @ U)[0] < 2e-5
        c = (np.linalg.inv(U) ** 2).sum(axis=0)
        w = design.solve_relaxed(U, Criterion.A_OPT)
        np.testing.assert_allclose(w.p, np.sqrt(c) / np.sqrt(c).sum(), rtol=1e-6)
        f = objective(U, w, Criterion.A_OPT)
        assert design.duality_gap(U, w, Criterion.A_OPT) <= design._SOLVER_RTOL * f


def start_rows(kind, seed):
    """Rows that stress the K-row start: a random orthonormal basis with
    duplicated rows, a constant column, a column scaled by 1e-5 (a tiny
    pivot that still passes the rank rule) or a near-duplicate row, or a
    generic square matrix, whose start is the uniform design."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    n = k + int(rng.integers(1, 12))
    if kind == "square":
        return rng.standard_normal((k, k))
    rows = random_orthonormal_rows(n, k, rng)
    if kind == "duplicated":
        return np.vstack([rows, rows[rng.integers(0, n, 3)]])
    if kind == "constant-column":
        rows[:, 0] = 1.0
    elif kind == "scaled-column":
        rows[:, -1] *= 1e-5
    elif kind == "near-duplicate":
        rows = np.vstack([rows, rows[int(rng.integers(n))] * (1 + 1e-9)])
    return rows


def passes_rank_rule(rows):
    return not spectral._rank_deficient(np.linalg.eigvalsh(rows.T @ rows))


START_KINDS = ["duplicated", "constant-column", "scaled-column", "near-duplicate", "square"]


class TestVolumeStart:
    @pytest.mark.parametrize("kind", START_KINDS)
    @pytest.mark.parametrize("crit", [Criterion.A_OPT, Criterion.D_OPT])
    def test_certified_and_no_worse_than_pairwise_only(self, kind, crit):
        for seed in range(8):
            rows = start_rows(kind, seed)
            if not passes_rank_rule(rows):
                continue
            w = design.solve_relaxed(rows, crit)
            val = objective(rows, w, crit)
            ref = objective(rows, pairwise_only(rows, crit), crit)
            assert val <= ref + 1e-9 * abs(ref)
            assert design.duality_gap(rows, w, crit) <= 1e-6 * max(1.0, abs(val))

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(START_KINDS), seed=st.integers(0, 2**32 - 1))
    def test_k_distinct_rows_of_full_rank(self, kind, seed):
        rows = start_rows(kind, seed)
        if passes_rank_rule(rows):
            picks = design._volume_rows(rows)
            assert len(set(picks)) == len(picks) == rows.shape[1]
            assert passes_rank_rule(rows[picks])

    def test_largest_residual_first_ties_to_lowest_index(self):
        rows = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 2.0], [1.0, 1.0]])
        assert design._volume_rows(rows) == [1, 0]


def grid_objective(A, D, gammas, crit):
    """Criterion of A + gamma D at each gamma, by plain eigvalsh; inf if singular."""
    w = np.linalg.eigvalsh(A[None] + gammas[:, None, None] * D[None])
    out = np.full(len(gammas), np.inf)
    ok = w[:, 0] > 0
    w = w[ok]
    out[ok] = -np.log(w).sum(axis=1) if crit is Criterion.D_OPT else (1.0 / w).sum(axis=1)
    return out


class TestPairwiseStep:
    """The closed-form swap that `pairwise_only` takes, checked on a grid."""

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
                    gamma = pairwise_step(Ainv, u_j, u_a, p[a], crit)
                assert 0.0 <= gamma <= p[a]
                D = np.outer(u_j, u_j) - np.outer(u_a, u_a)
                at_gamma = grid_objective(A, D, np.array([gamma]), crit)[0]
                best = grid_objective(A, D, np.linspace(0.0, p[a], 2001), crit).min()
                assert at_gamma <= best + 1e-9 * abs(best)

    def test_same_node_is_a_zero_step(self, rng):
        rows = random_orthonormal_rows(6, 3, rng)
        A = design.information_matrix(rows, DesignWeights(np.full(6, 1 / 6)))
        for crit in (Criterion.A_OPT, Criterion.D_OPT):
            step = pairwise_step(np.linalg.inv(A), rows[2], rows[2], 1 / 6, crit)
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
