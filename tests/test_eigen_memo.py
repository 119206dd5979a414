"""The factorization of a sampled Gram that an allocation keeps, behind BLUE
and the quantized-design rank check: results equal a plain LAPACK call bit for
bit, allocation and BLUE make one rank decision on one factorization, failures
are raised on every call and never kept, and nothing outlives the allocation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal_rows, sampling
from gsample import bench, design, estimation, graphs, spectral
from gsample.design import DesignWeights, SampleAllocation
from gsample.exceptions import FallbackExhausted, RankDeficientSampling


@pytest.fixture(scope="module")
def basis():
    g = graphs.random_geometric(30, 0.5, 0.25, seed=3)
    return spectral.eigendecompose(graphs.laplacian(g))


def repeated_sequence(n, k, rng):
    """A full-rank allocation of 3K samples in which some nodes repeat."""
    distinct = rng.choice(n, size=k, replace=False)
    return sampling(np.concatenate([distinct, rng.choice(distinct, size=2 * k)]), n)


def support_form(V_K, seq):
    """`_sampled_eigh`'s (w, P, starts) written out: the eigh (w, Q) of the Gram
    G = U^T diag(m_S) U over the rows U of the sampled nodes S, P = G^-1 U^T
    formed through Q, and where each node's run starts in `seq.indices`."""
    S = np.flatnonzero(seq.m)
    U = V_K[S]
    w, Q = np.linalg.eigh(U.T @ (seq.m[S, None] * U))
    return w, Q @ ((Q.T @ U.T) / w[:, None]), (np.cumsum(seq.m) - seq.m)[S]


class TestBitwiseEqual:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eigh_cold_warm_plain(self, basis, seed):
        k = 5
        seq = repeated_sequence(basis.n, k, np.random.default_rng(seed))
        V_K = basis.eigenvectors[:, :k]
        cold = spectral._sampled_eigh(V_K, seq)
        warm = spectral._sampled_eigh(V_K.copy(), seq)
        other = spectral._sampled_eigh(V_K, sampling(seq.indices, basis.n))
        expected = support_form(V_K, seq)
        assert warm is cold
        for got in (cold, other):
            assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))
        # each sampled node's run in the sequence begins at its start
        assert np.array_equal(cold[2], np.searchsorted(seq.indices, np.flatnonzero(seq.m)))

    def test_mutated_input_is_a_new_key(self, rng):
        V = rng.standard_normal((4, 3))
        alloc = sampling(np.arange(4), 4)
        before = spectral._sampled_eigh(V, alloc)[0].copy()
        V *= 2.0
        after = spectral._sampled_eigh(V, alloc)[0]
        assert np.array_equal(after, support_form(V, alloc)[0])
        assert not np.array_equal(after, before)
        # a sampled 0.0 turned -0.0 leaves every value equal but not every bit
        V[2, 1] = 0.0
        zero = spectral._sampled_eigh(V, alloc)
        V[2, 1] = -0.0
        negative_zero = spectral._sampled_eigh(V, alloc)
        assert negative_zero is not zero
        assert spectral._sampled_eigh(V, alloc) is negative_zero

    @pytest.mark.parametrize("m", [[1, 1, 0, 0, 0], [1, 1, 0]], ids=["5-quotas", "3-quotas"])
    def test_allocation_for_another_node_count_rejected(self, rng, m):
        # its sampled nodes 0 and 1 are rows of V, but it has no quota per row
        with pytest.raises(ValueError, match=f"4 nodes but the allocation {len(m)} quotas"):
            spectral._sampled_eigh(rng.standard_normal((4, 2)), SampleAllocation(m, 2))

    def test_repeated_sequence_factors_once(self, basis, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        k = 4
        seq = repeated_sequence(basis.n, k, rng)
        for _ in range(5):
            estimation.blue_estimate(basis, k, seq, rng.standard_normal(seq.budget))
        assert len(calls) == 1


class TestSupportForm:
    """An allocation's Gram is its moment matrix sum_i m_i u_i u_i^T over the
    nodes it samples, and BLUE sums each node's observations: neither expands
    the M-entry sampling sequence."""

    # E is left out: rounding its uniform design on 30 nodes moves lambda_min
    # by about N / M, 3e-5 relative at this budget
    @pytest.mark.parametrize("criterion", ["a", "d"])
    def test_large_budget_design_never_expands_its_sequence(self, basis, criterion):
        result = design.design_pipeline(basis, 15, 10**6, criterion, seed=0)
        assert "indices" not in result.allocation.__dict__
        assert sum(result.allocation.m) == 10**6
        d = result.diagnostics
        rel = abs(d["quantized_objective"] - d["relaxed_objective"]) / abs(d["relaxed_objective"])
        assert rel <= 1e-6
        assert d["invertible_probability"] == 1.0 and d["fallback_moves"] == 0

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4),
           m=st.lists(st.integers(0, 10**6), min_size=4, max_size=8))
    def test_eigenvalues_are_the_moment_matrix_ones(self, seed, k, m):
        m = np.array(m)
        assume(m.sum() >= 1)
        V = random_orthonormal_rows(len(m), k, np.random.default_rng(seed))
        w = spectral._sampled_eigh(V, SampleAllocation(m, int(m.sum())))[0]
        expected = np.linalg.eigvalsh(sum(m_i * np.outer(u, u) for m_i, u in zip(m, V)))
        assert np.abs(w - expected).max() <= 1e-12 * np.abs(expected).max()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4),
           m=st.lists(st.integers(0, 5), min_size=4, max_size=8))
    def test_blue_matches_lstsq_on_the_sequence(self, seed, k, m):
        m = np.array(m)
        assume(m.sum() >= 1)
        rng = np.random.default_rng(seed)
        V = random_orthonormal_rows(len(m), k, rng)
        seq = SampleAllocation(m, int(m.sum()))
        V_S = V[seq.indices]
        # the normal equations square the condition number lstsq sees
        assume(np.linalg.matrix_rank(V_S) == k and np.linalg.cond(V_S) < 1e3)
        y = rng.standard_normal(seq.budget)
        basis = spectral.SpectralBasis(np.arange(float(len(m))), V)
        est = estimation.blue_estimate(basis, k, seq, y)
        expected = np.linalg.lstsq(V_S, y, rcond=None)[0]
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(est.coeff_estimate - expected).max() <= 1e-8 * scale


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


def allocation_and_blue_refuse(rows, m):
    """Whether `allocate_from_weights`, on the draw `m` of the design m/M,
    and `blue_estimate` reject the quotas `m` on `rows`, both taken as the
    first K eigenvectors. Allocation rejects them by shifting a unit or by
    running out of shifts."""
    budget = int(np.sum(m))
    try:
        refused = design.allocate_from_weights(rows, DesignWeights(m / budget), budget, m)[1] > 0
    except FallbackExhausted:
        refused = True
    basis = spectral.SpectralBasis(np.arange(float(len(rows))), rows)
    try:
        estimation.blue_estimate(
            basis, rows.shape[1], SampleAllocation(m=m, budget=budget), np.zeros(budget))
        blue = False
    except RankDeficientSampling:
        blue = True
    return refused, blue


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
        refused, blue = allocation_and_blue_refuse(rows, np.array([1, 1, 2, 4]))
        assert refused == blue

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
        refused, blue = allocation_and_blue_refuse(rows, m)
        assert refused == blue

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
        alloc, _ = design.allocate_from_weights(
            rows, weights, 3 * k, design.quantize_raw(weights, 3 * k, 0))
        estimation.blue_estimate(basis, k, alloc, np.ones(alloc.budget))
        assert calls == {"eigh": 1, "eigvalsh": 0}


class TestFailuresNotCached:
    def test_rank_deficient_sequence_raises_every_call(self, basis):
        # three distinct nodes, each sampled twice, cannot span K = 4
        seq = sampling([0, 0, 5, 5, 9, 9], basis.n)
        for _ in range(3):
            with pytest.raises(RankDeficientSampling):
                estimation.blue_estimate(basis, 4, seq, np.zeros(seq.budget))

    def test_point_mass_design_exhausts_fallback_every_call(self):
        # every node but 0 has zero weight, so each draw quantizes to
        # m = (5, 0, 0, 0) and the one-unit shifts never reach rank 2
        rows = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        weights = DesignWeights(np.array([1.0, 0.0, 0.0, 0.0]))
        for _ in range(3):
            with pytest.raises(FallbackExhausted):
                design.allocate_from_weights(
                    rows, weights, 5, design.quantize_raw(weights, 5, 0))


class TestMemoSafety:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gram_refused_every_call(self, value):
        V = np.eye(3)
        V[1] = value
        alloc = sampling(np.arange(3), 3)
        for _ in range(2):
            with pytest.raises(ValueError, match="sampled Gram is not finite"):
                spectral._sampled_eigh(V, alloc)
        V[1] = [0.0, 1.0, 0.0]
        w, P, starts = spectral._sampled_eigh(V, alloc)
        assert np.array_equal(w, np.ones(3)) and np.array_equal(P, np.eye(3))
        assert starts.tolist() == [0, 1, 2]

    def test_results_are_read_only(self, basis, rng):
        k = 4
        seq = repeated_sequence(basis.n, k, rng)
        V_K = basis.eigenvectors[:, :k]
        for a in spectral._sampled_eigh(V_K, seq):
            with pytest.raises(ValueError):
                a[0] = 0
        assert np.array_equal(spectral._sampled_eigh(V_K, seq)[0], support_form(V_K, seq)[0])

    def test_nothing_outlives_a_run(self, monkeypatch):
        # a factorization kept past its allocation would spare the second run
        # the eigh calls of every allocation the first one made
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        cfg = bench.config_from_dict({
            "schema": 1,
            "scenario": "two-runs",
            "graph": {"kind": "random_geometric", "n": 40, "radius": 0.5, "kernel_width": 0.25},
            "signal": {"bandwidth_min": 3, "bandwidth_max": 4, "snr_db_grid": [0, "inf"]},
            "trials": 3,
            "methods": ["proposed", "m1", "m3"],
            "criterion": "a",
            "master_seed": 42,
        })
        counts = []
        for _ in range(2):
            calls.clear()
            bench.run_scenario(cfg, measure_time=False)
            counts.append(len(calls))
        assert counts[0] == counts[1]


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
