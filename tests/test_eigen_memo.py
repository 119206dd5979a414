"""The memoized factorization of sampled Grams behind BLUE and the
quantized-design rank check: results equal a plain LAPACK call bit for bit,
allocation and BLUE make one rank decision on one factorization, failures are
raised on every call, and the memo stays bounded and unpoisonable."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import sampling
from gsample import design, estimation, graphs, spectral
from gsample.design import DesignWeights, SampleAllocation
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
    spectral._memo_eigh.cache_clear()
    yield
    spectral._memo_eigh.cache_clear()


def repeated_sequence(n, k, rng):
    """A full-rank allocation of 3K samples in which some nodes repeat."""
    distinct = rng.choice(n, size=k, replace=False)
    return sampling(np.concatenate([distinct, rng.choice(distinct, size=2 * k)]), n)


def sampled_gram(basis, k, seq):
    V = basis.eigenvectors[:, :k][seq.indices]
    return V.T @ V


class TestBitwiseEqual:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eigh_cold_warm_plain(self, basis, seed):
        k = 5
        seq = repeated_sequence(basis.n, k, np.random.default_rng(seed))
        V_K = basis.eigenvectors[:, :k]
        V_S, *cold = spectral._sampled_eigh(V_K, seq.indices)
        _, *warm = spectral._sampled_eigh(V_K.copy(), seq.indices.copy())
        w, Q = np.linalg.eigh(sampled_gram(basis, k, seq))
        assert warm[0] is cold[0] and warm[1] is cold[1]
        assert np.array_equal(cold[0], w) and np.array_equal(cold[1], Q)
        assert np.array_equal(V_S, V_K[seq.indices])
        assert spectral._memo_eigh.cache_info().hits == 1

    def test_mutated_input_is_a_new_key(self, rng):
        V = rng.standard_normal((4, 3))
        idx = np.arange(4)
        before = spectral._sampled_eigh(V, idx)[1].copy()
        V *= 2.0
        after = spectral._sampled_eigh(V, idx)[1]
        assert np.array_equal(after, np.linalg.eigh(V.T @ V)[0])
        assert not np.array_equal(after, before)

    def test_index_past_the_rows_rejected(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            spectral._sampled_eigh(rng.standard_normal((4, 2)), np.array([0, 4]))

    def test_repeated_sequence_factors_once(self, basis, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        k = 4
        seq = repeated_sequence(basis.n, k, rng)
        for _ in range(5):
            estimation.blue_estimate(basis, k, seq, rng.standard_normal(seq.budget))
        assert len(calls) == 1


class TestBlue:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lstsq_cold_and_warm(self, basis, seed):
        rng = np.random.default_rng(seed)
        k = 6
        seq = repeated_sequence(basis.n, k, rng)
        V_mk = basis.eigenvectors[:, :k][seq.indices]
        for _ in range(2):
            y = rng.standard_normal(seq.budget)
            est = estimation.blue_estimate(basis, k, seq, y)
            expected = np.linalg.lstsq(V_mk, y, rcond=None)[0]
            assert np.abs(est.coeff_estimate - expected).max() <= 1e-8


def quantized_and_blue_raise(rows, m):
    """Whether `quantized_information_matrix` and `blue_estimate` reject the
    quotas `m` on `rows`, both taken as the first K eigenvectors."""
    alloc = SampleAllocation(m=m, budget=int(np.sum(m)))
    basis = spectral.SpectralBasis(np.arange(float(len(rows))), rows)
    try:
        design.quantized_information_matrix(rows, alloc)
        qim = False
    except SingularInformationMatrix:
        qim = True
    try:
        estimation.blue_estimate(basis, rows.shape[1], alloc, np.zeros(alloc.budget))
        blue = False
    except RankDeficientSampling:
        blue = True
    return qim, blue


class TestOneRankDecision:
    def test_near_threshold_design_gets_one_answer(self):
        # lambda_min / lambda_max of this design sits within 1e-16 of the
        # 1e-12 rank threshold: eigvalsh of sum (m_i/M) u_i u_i^T put it
        # below and eigh of the sampled Gram above, so the quantized-design
        # check raised where BLUE estimated
        rows = np.array([
            [-0.9167776795665493, -1.0656023843162088],
            [0.9605034760075998, 1.11642958693333],
            [-0.8761711170587881, -1.018403718239041],
            [-0.3129927587666398, -0.3638007091124933],
        ])
        qim, blue = quantized_and_blue_raise(rows, np.array([1, 1, 2, 4]))
        assert qim == blue

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.integers(0, 4)),
            min_size=2, max_size=8,
        ),
        c=st.floats(-2, 2),
    )
    def test_quantized_check_raises_exactly_when_blue_does(self, data, c):
        col, noise, m = (np.array(v) for v in zip(*data))
        assume(m.sum() >= 1)
        rows = np.column_stack([col, c * col + 1e-6 * noise])
        qim, blue = quantized_and_blue_raise(rows, m)
        assert qim == blue

    def test_allocation_and_blue_share_one_factorization(self, basis, monkeypatch):
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda a, fn=fn, name=name: calls.__setitem__(name, calls[name] + 1) or fn(a))
        k = 4
        rows = basis.eigenvectors[:, :k].copy()
        weights = DesignWeights(np.full(basis.n, 1.0 / basis.n))
        alloc, _ = design.allocate_from_weights(rows, weights, 3 * k, seed=0)
        estimation.blue_estimate(basis, k, alloc, np.ones(alloc.budget))
        assert calls == {"eigh": 1, "eigvalsh": 0}


class TestFailuresNotCached:
    def test_rank_deficient_sequence_raises_every_call(self, basis):
        # three distinct nodes, each sampled twice, cannot span K = 4
        seq = sampling([0, 0, 5, 5, 9, 9], basis.n)
        for _ in range(3):
            with pytest.raises(RankDeficientSampling):
                estimation.blue_estimate(basis, 4, seq, np.zeros(seq.budget))

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
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gram_refused_every_call(self, value):
        V = np.eye(3)
        V[1] = value
        for _ in range(2):
            with pytest.raises(ValueError, match="sampled Gram is not finite"):
                spectral._sampled_eigh(V, np.arange(3))
        assert spectral._memo_eigh.cache_info().currsize == 0

    def test_results_are_read_only(self, basis, rng):
        k = 4
        seq = repeated_sequence(basis.n, k, rng)
        V_K = basis.eigenvectors[:, :k]
        _, w, Q = spectral._sampled_eigh(V_K, seq.indices)
        for a in (w, Q):
            with pytest.raises(ValueError):
                a[0] = 0.0
        G = sampled_gram(basis, k, seq)
        assert np.array_equal(spectral._sampled_eigh(V_K, seq.indices)[1], np.linalg.eigh(G)[0])

    def test_bounded_capacity(self, rng):
        size = spectral._EIGEN_MEMO_SIZE
        for _ in range(3 * size):
            spectral._sampled_eigh(rng.standard_normal((4, 3)), rng.integers(4, size=5))
        info = spectral._memo_eigh.cache_info()
        assert info.maxsize == size
        assert info.currsize == size
        assert info.misses == 3 * size


# ascending finite eigenvalues, from negative through subnormal to large
eigenvalues = st.lists(
    st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-12])),
    min_size=1, max_size=6,
).map(sorted).map(np.array)


@pytest.mark.parametrize("w", [[np.nan], [np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan]])
def test_rank_rule_calls_a_nan_end_singular(w):
    w = np.array(w)
    assert spectral._rank_deficient(w)
    assert spectral._rank_deficient(np.stack([w, w])).all()


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
