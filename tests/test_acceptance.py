"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers when it succeeds."""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import random_orthonormal_rows, sampling
from gsample import baselines, bench, cli, design, estimation, graphs, spectral
from gsample.design import Criterion, DesignWeights
from gsample.exceptions import FallbackExhausted


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS — {detail}")


def integer_designs(n, budget):
    for cuts in itertools.combinations(range(budget + n - 1), n - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(budget + n - 2 - prev)
        yield np.array(parts)


def crit_at(rows, p, crit):
    A = rows.T @ (p[:, None] * rows)
    w = np.linalg.eigvalsh(A)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        return math.inf
    return -np.sum(np.log(w)) if crit is Criterion.D_OPT else np.sum(1.0 / w)


def test_criterion_1_relaxation_bound_chain():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    budgets = [3, 4, 5]
    for trial in range(20):
        rows = random_orthonormal_rows(8, 3, rng)
        budget = budgets[trial % 3]
        for crit in (Criterion.A_OPT, Criterion.D_OPT):
            weights = design.solve_relaxed(rows, crit)
            relaxed = crit_at(rows, weights.p, crit)
            gap = design.duality_gap(rows, weights, crit)
            comb = min(
                crit_at(rows, m / budget, crit)
                for m in integer_designs(8, budget)
            )
            quantized = None
            for seed in range(10):
                try:
                    alloc, _ = design.allocate_from_weights(
                        rows, weights, budget, design.quantize_raw(weights, budget, seed)
                    )
                    quantized = crit_at(rows, alloc.m / budget, crit)
                    break
                except FallbackExhausted:
                    continue
            assert quantized is not None
            assert relaxed - gap <= comb + 1e-8
            assert comb <= quantized + 1e-8
    elapsed = time.time() - t0
    assert elapsed < 30
    report("1 relaxation-bound chain",
           f"20 instances x A/D, enumerated optima bracketed, {elapsed:.1f}s")


def test_criterion_2_mse_identity():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    g = graphs.random_geometric(30, 0.5, 0.25, seed=21)
    basis = spectral.eigendecompose(graphs.laplacian(g))
    worst = 0.0
    for _ in range(5):
        k = int(rng.integers(2, 6))
        m = 4 * k
        seq = sampling(rng.choice(basis.n, size=m, replace=True), basis.n)
        V = basis.eigenvectors[:, :k][seq.indices]
        tr = design.criterion_value(V.T @ V, Criterion.A_OPT)
        pinv = np.linalg.pinv(V)
        z = rng.standard_normal((100_000, m))
        mc = float(np.mean(np.sum((z @ pinv.T) ** 2, axis=1)))
        rel = abs(mc - tr) / tr
        worst = max(worst, rel)
        assert rel <= 0.03
    elapsed = time.time() - t0
    assert elapsed < 20
    report("2 MSE identity",
           f"5 designs, 1e5 draws each, worst rel err {worst:.4f}, {elapsed:.1f}s")


def test_criterion_3_quantization_unbiasedness():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    for budget in (10, 50):
        p = rng.dirichlet(np.ones(8))
        weights = DesignWeights(p)
        draws = 100_000
        gen = np.random.default_rng(7)
        total = np.zeros(8)
        sq = np.zeros(8)
        for _ in range(draws):
            q = design.quantize_raw(weights, budget, gen) / budget
            total += q
            sq += q * q
        mean = total / draws
        var = np.maximum(sq / draws - mean**2, 0.0)
        stderr = np.sqrt(var / draws)
        assert (np.abs(mean - p) <= 4 * stderr + 1e-12).all()
    elapsed = time.time() - t0
    assert elapsed < 10
    report("3 quantization unbiasedness",
           f"1e5 pre-repair draws at M=10 and M=50 within 4 stderr, {elapsed:.1f}s")


def test_criterion_4_solver_certificate():
    t0 = time.time()
    rng = np.random.default_rng(1004)
    worst_rel_gap = 0.0
    worst_fd = 0.0
    for trial in range(20):
        k = int(rng.integers(2, 11))
        n = int(rng.integers(max(k + 5, 20), 101))
        rows = random_orthonormal_rows(n, k, rng)
        crit = Criterion.A_OPT if trial % 2 == 0 else Criterion.D_OPT
        weights = design.solve_relaxed(rows, crit)
        val = crit_at(rows, weights.p, crit)
        gap = design.duality_gap(rows, weights, crit)
        rel_gap = gap / max(1.0, abs(val))
        worst_rel_gap = max(worst_rel_gap, rel_gap)
        assert rel_gap <= 1e-6
        # gradient vs central finite differences at an interior point
        p = rng.dirichlet(np.ones(n)) * 0.5 + 0.5 / n
        p /= p.sum()
        g = design.criterion_gradient(rows, DesignWeights(p), crit)
        h = 1e-5
        for i in rng.choice(n, size=3, replace=False):
            up, dn = p.copy(), p.copy()
            up[i] += h
            dn[i] -= h
            fd = (crit_at(rows, up, crit) - crit_at(rows, dn, crit)) / (2 * h)
            rel = abs(g[i] - fd) / max(abs(fd), 1e-12)
            worst_fd = max(worst_fd, rel)
            assert rel <= 1e-5
    elapsed = time.time() - t0
    assert elapsed < 60
    report("4 solver certificate",
           f"20 instances, worst relative gap {worst_rel_gap:.2e}, "
           f"worst gradient FD error {worst_fd:.2e}, {elapsed:.1f}s")


def test_criterion_5_corollary_formula(capsys):
    t0 = time.time()
    code = cli.main(["bound", "--sigma-min", "0.1", "--n", "10", "--eta", "0.9"])
    out = capsys.readouterr().out
    assert code == 0 and "M = 7" in out
    etas = [0.5, 0.7, 0.9, 0.95, 0.99]
    ns = [2, 5, 10, 50, 100]
    sigmas = [0.02, 0.05, 0.1, 0.2, 0.5]
    for n in ns:
        for s in sigmas:
            ms = [design.min_sample_size(s, n, e) for e in etas]
            assert ms == sorted(ms)
    for e in etas:
        for s in sigmas:
            ms = [design.min_sample_size(s, n, e) for n in ns]
            assert ms == sorted(ms)
        for n in ns:
            ms = [design.min_sample_size(s, n, e) for s in sigmas]
            assert ms == sorted(ms, reverse=True)
    elapsed = time.time() - t0
    assert elapsed < 1
    with capsys.disabled():
        report("5 sample-size formula",
               f"CLI reproduces M=7; monotone over 5x5x5 grid, {elapsed:.2f}s")


def test_criterion_6_perturbation_inequality():
    t0 = time.time()
    rng = np.random.default_rng(1006)
    total_draws = 0
    for instance in range(5):
        rows = random_orthonormal_rows(20, 4, rng)
        weights = design.solve_relaxed(rows, Criterion.A_OPT)
        sigma_min = float(
            np.linalg.eigvalsh(design.information_matrix(rows, weights))[0]
        )
        budget = 25
        gen = np.random.default_rng(600 + instance)
        hits = 0
        deltas = []
        for _ in range(200):
            raw = design.quantize_raw(weights, budget, gen)
            dp = raw / budget - weights.p
            norm = np.abs(np.linalg.eigvalsh(rows.T @ (dp[:, None] * rows))).max()
            bound = np.abs(dp).max()
            assert norm <= bound + 1e-10  # zero violations allowed
            hits += norm < sigma_min
            deltas.append(dp)
            total_draws += 1
        emp_var = np.var(np.array(deltas), axis=0)
        emp_bound = float(np.prod(np.maximum(1.0 - emp_var / sigma_min**2, 0.0)))
        analytic_bound = design.invertibility_probability_bound(sigma_min, budget, 20)
        freq = hits / 200
        assert freq >= emp_bound - 1e-12
    elapsed = time.time() - t0
    assert elapsed < 30
    report("6 perturbation inequality",
           f"{total_draws} draws, spectral norm never above max residual; "
           f"empirical invertibility frequency above the empirical-variance "
           f"bound (analytic bound reported alongside: {analytic_bound:.4f}), "
           f"{elapsed:.1f}s")


def test_criterion_7_directional_benchmark():
    t0 = time.time()
    cfg = bench.preset_config(
        "g2-f2-desk", trials=200, methods=["proposed", "m3"], master_seed=2024
    )
    records = bench.run_scenario(cfg, measure_time=False)
    summary = {
        (r.method, r.snr_db): r.mean_error for r in bench.summarize(records)
    }
    snrs = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    wins = sum(
        summary[("proposed", s)] <= summary[("m3", s)] for s in snrs
    )
    assert wins >= 4
    assert summary[("proposed", 0.0)] < summary[("m3", 0.0)]
    elapsed = time.time() - t0
    assert elapsed < 300
    report("7 directional benchmark",
           f"proposed beats top-M at {wins}/6 SNR points "
           f"(0 dB: {summary[('proposed', 0.0)]:.3f} vs "
           f"{summary[('m3', 0.0)]:.3f}), {elapsed:.1f}s")


def test_criterion_8_noiseless_exactness():
    t0 = time.time()
    rng = np.random.default_rng(1008)
    g = graphs.random_geometric(60, 0.4, 0.2, seed=31)
    basis = spectral.eigendecompose(graphs.laplacian(g))
    k, budget = 5, 20
    rows = spectral.design_rows(basis, k)
    coeffs = 1.0 + 0.5 * rng.standard_normal(k)
    f = spectral.synthesize_bandlimited(basis, coeffs)
    weights = design.solve_relaxed(rows, Criterion.A_OPT)
    alloc, _ = design.allocate_from_weights(
        rows, weights, budget, design.quantize_raw(weights, budget, 0))
    sequences = {
        "proposed": alloc,
        "m1": baselines.greedy_sigma_min(rows, budget),
        "m3": baselines.top_m_selection(weights, budget),
    }
    errors = {}
    for name, seq in sequences.items():
        samples = estimation.sample_with_noise(f, seq, math.inf)
        est = estimation.blue_estimate(basis, k, seq, samples.y, f_true=f)
        errors[name] = est.error_l2
        assert est.error_l2 <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 5
    report("8 noiseless exactness",
           "errors " + ", ".join(f"{k}={v:.2e}" for k, v in errors.items())
           + f", {elapsed:.1f}s")


def test_criterion_e_path_end_to_end():
    # on a connected graph's basis the E-optimal relaxed design is uniform;
    # the quantized design is reported, not bounded (it rounds badly)
    t0 = time.time()
    cfg = bench.preset_config("g2-f2-desk")
    basis = spectral.eigendecompose(graphs.laplacian(bench.build_graph(cfg)))
    k, budget = 15, 60
    rng = np.random.default_rng(1009)
    ratios = []
    for seed in range(5):
        result = design.design_pipeline(basis, k, budget, Criterion.E_OPT, seed=seed)
        diag = result.diagnostics
        p = result.weights.p
        assert (p == p[0]).all() and p[0] == pytest.approx(1 / basis.n, rel=1e-12)
        assert diag["duality_gap"] <= 1e-6 * max(1.0, abs(diag["relaxed_objective"]))
        assert diag["relaxed_objective"] == pytest.approx(basis.n, rel=1e-12)
        f = spectral.synthesize_bandlimited(basis, rng.standard_normal(k))
        alloc = result.allocation
        est = estimation.blue_estimate(basis, k, alloc, f[alloc.indices], f_true=f)
        assert est.error_l2 <= 1e-8 * np.linalg.norm(f)
        ratios.append(diag["quantized_objective"] / diag["relaxed_objective"])
    elapsed = time.time() - t0
    report("E path end to end",
           f"N={basis.n}, K={k}, M={budget}: uniform weights, relaxed objective N, "
           f"noiseless BLUE exact over 5 seeds; quantized/relaxed objective "
           f"{min(ratios):.3g}-{max(ratios):.3g}, {elapsed:.1f}s")
