"""The memoized symmetric eigensolver behind BLUE and the quantized-design
rank check: results equal a plain LAPACK call bit for bit, failures are
raised on every call, and the memo stays bounded and unpoisonable."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsample import design, estimation, graphs, spectral
from gsample.design import DesignWeights, SampleAllocation
from gsample.estimation import SamplingSequence
from gsample.exceptions import (
    FallbackExhausted,
    RankDeficientSampling,
    SingularInformationMatrix,
)


@pytest.fixture(scope="module")
def basis():
    g = graphs.random_geometric(30, 0.5, 0.25, seed=3)
    return spectral.eigendecompose(graphs.laplacian(g))


@pytest.fixture(autouse=True)
def cold_memo():
    spectral._memo_eigen.cache_clear()
    yield
    spectral._memo_eigen.cache_clear()


def repeated_sequence(n, k, rng):
    """A full-rank sequence of 3K samples in which some nodes repeat."""
    distinct = rng.choice(n, size=k, replace=False)
    return SamplingSequence(np.concatenate([distinct, rng.choice(distinct, size=2 * k)]))


def sampled_gram(basis, k, seq):
    V = basis.eigenvectors[:, :k][seq.indices]
    return V.T @ V


class TestBitwiseEqual:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eigh_cold_warm_plain(self, basis, seed):
        k = 5
        G = sampled_gram(basis, k, repeated_sequence(basis.n, k, np.random.default_rng(seed)))
        cold = spectral._symmetric_eigen(G, vectors=True)
        warm = spectral._symmetric_eigen(G.copy(), vectors=True)
        w, Q = np.linalg.eigh(G)
        assert warm[0] is cold[0] and warm[1] is cold[1]
        assert np.array_equal(cold[0], w) and np.array_equal(cold[1], Q)
        assert spectral._memo_eigen.cache_info().hits == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eigvalsh_cold_warm_plain(self, basis, seed):
        rng = np.random.default_rng(seed)
        rows = basis.eigenvectors[:, :4]
        alloc = SampleAllocation(m=rng.multinomial(20, np.ones(basis.n) / basis.n), budget=20)
        A = design.information_matrix(rows, DesignWeights(alloc.m / alloc.budget))
        cold = spectral._symmetric_eigen(A, vectors=False)
        warm = spectral._symmetric_eigen(A.copy(), vectors=False)
        assert warm is cold
        assert np.array_equal(cold, np.linalg.eigvalsh(A))

    def test_mode_is_part_of_the_key(self, rng):
        x = rng.standard_normal((4, 4))
        A = x @ x.T
        w = spectral._symmetric_eigen(A, vectors=False)
        _, Q = spectral._symmetric_eigen(A, vectors=True)
        assert isinstance(w, np.ndarray) and Q.shape == (4, 4)
        assert spectral._memo_eigen.cache_info().misses == 2

    def test_mutated_input_is_a_new_key(self, rng):
        x = rng.standard_normal((3, 3))
        A = x @ x.T
        before = spectral._symmetric_eigen(A, vectors=False).copy()
        A *= 2.0
        after = spectral._symmetric_eigen(A, vectors=False)
        assert np.array_equal(after, np.linalg.eigvalsh(A))
        assert not np.array_equal(after, before)

    def test_repeated_sequence_factors_once(self, basis, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        k = 4
        seq = repeated_sequence(basis.n, k, rng)
        for _ in range(5):
            estimation.blue_estimate(basis, k, seq, rng.standard_normal(len(seq)))
        assert len(calls) == 1


class TestBlue:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lstsq_cold_and_warm(self, basis, seed):
        rng = np.random.default_rng(seed)
        k = 6
        seq = repeated_sequence(basis.n, k, rng)
        V_mk = basis.eigenvectors[:, :k][seq.indices]
        for _ in range(2):
            y = rng.standard_normal(len(seq))
            est = estimation.blue_estimate(basis, k, seq, y)
            expected = np.linalg.lstsq(V_mk, y, rcond=None)[0]
            assert np.abs(est.coeff_estimate - expected).max() <= 1e-8


class TestFailuresNotCached:
    def test_rank_deficient_sequence_raises_every_call(self, basis):
        # three distinct nodes, each sampled twice, cannot span K = 4
        seq = SamplingSequence(np.array([0, 0, 5, 5, 9, 9]))
        for _ in range(3):
            with pytest.raises(RankDeficientSampling):
                estimation.blue_estimate(basis, 4, seq, np.zeros(len(seq)))

    def test_singular_allocation_raises_every_call(self, basis):
        rows = basis.eigenvectors[:, :3]
        m = np.zeros(basis.n, dtype=int)
        m[[2, 7]] = [3, 2]  # two nodes cannot span K = 3
        alloc = SampleAllocation(m=m, budget=5)
        for _ in range(3):
            with pytest.raises(SingularInformationMatrix):
                design.quantized_information_matrix(rows, alloc)

    def test_point_mass_design_exhausts_fallback_every_call(self):
        # every node but 0 has zero weight, so each draw quantizes to
        # m = (5, 0, 0, 0) and the one-unit shifts never reach rank 2
        rows = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        weights = DesignWeights(np.array([1.0, 0.0, 0.0, 0.0]))
        for _ in range(3):
            with pytest.raises(FallbackExhausted):
                design.allocate_from_weights(rows, weights, 5, seed=0)


class TestMemoSafety:
    def test_results_are_read_only(self, basis, rng):
        k = 4
        G = sampled_gram(basis, k, repeated_sequence(basis.n, k, rng))
        w, Q = spectral._symmetric_eigen(G, vectors=True)
        values = spectral._symmetric_eigen(G, vectors=False)
        for a in (w, Q, values):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert np.array_equal(spectral._symmetric_eigen(G, vectors=True)[0], np.linalg.eigh(G)[0])

    def test_bounded_capacity(self, rng):
        size = spectral._EIGEN_MEMO_SIZE
        for _ in range(3 * size):
            x = rng.standard_normal((3, 3))
            spectral._symmetric_eigen(x @ x.T, vectors=bool(rng.integers(2)))
        info = spectral._memo_eigen.cache_info()
        assert info.maxsize == size
        assert info.currsize == size
        assert info.misses == 3 * size


# ascending finite eigenvalues, from negative through subnormal to large
eigenvalues = st.lists(
    st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-12])),
    min_size=1, max_size=6,
).map(sorted).map(np.array)


@settings(max_examples=500, deadline=None)
@given(w=eigenvalues)
def test_rank_rule_matches_the_three_spellings_it_replaced(w):
    """`spectral._rank_deficient` against the tests the quantized-design
    check, greedy `m1` and BLUE wrote out before; BLUE's 1e-300 floor on
    lambda_max only mattered for 0 < lambda_max < 1e-300."""
    rule = bool(spectral._rank_deficient(w))
    assert rule == (w[-1] <= 0 or w[0] <= 1e-12 * w[-1])  # quantized design
    assert rule == (not w[0] > 1e-12 * w[-1])  # greedy m1
    if not 0 < w[-1] < 1e-300:
        assert rule == (w[0] <= 1e-12 * max(w[-1], 1e-300))  # BLUE
    stacked = np.stack([w, -w[::-1]])
    assert spectral._rank_deficient(stacked).tolist() == [
        rule, bool(spectral._rank_deficient(-w[::-1]))]
