import csv
import dataclasses
import hashlib
import inspect
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from gsample import baselines, bench, design, estimation, graphs, spectral
from gsample.exceptions import GSampleError

TINY = {
    "schema": 1,
    "scenario": "tiny",
    "graph": {"kind": "random_geometric", "n": 40, "radius": 0.5, "kernel_width": 0.25},
    "signal": {"bandwidth_min": 3, "bandwidth_max": 3, "snr_db_grid": ["inf"]},
    "trials": 2,
    "methods": ["proposed", "m1", "m3"],
    "criterion": "a",
    "master_seed": 42,
}


def tiny_config(**overrides):
    data = json.loads(json.dumps(TINY))
    data.update(overrides)
    return bench.config_from_dict(data)


class TestConfig:
    def test_unknown_keys_rejected(self):
        data = dict(TINY, extra_knob=1)
        with pytest.raises(ValueError, match="unknown config keys"):
            bench.config_from_dict(data)

    def test_inf_snr_parsed(self):
        cfg = tiny_config()
        assert cfg.signal["snr_db_grid"] == [math.inf]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            tiny_config(methods=["proposed", "m2"])

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="method 'm1' is listed twice"):
            tiny_config(methods=["m1", "proposed", "m1"])

    @pytest.mark.parametrize("graph", [
        *[preset["graph"] for preset in bench.PRESETS.values()],
        {"kind": "watts_strogatz", "n": 40},
        {"kind": "random_geometric", "n": 40},
        {"kind": "file", "path": "graph.edges"},
    ])
    def test_checked_config_checks_again(self, graph):
        cfg = tiny_config(graph=graph)
        again = dataclasses.replace(cfg, trials=3)
        assert again.trials == 3 and again.graph == cfg.graph

    def test_empty_snr_grid_rejected(self):
        with pytest.raises(ValueError, match="snr"):
            tiny_config(signal={"bandwidth_min": 3, "bandwidth_max": 3,
                                "snr_db_grid": []})

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY))
        cfg = bench.load_config(path)
        assert cfg.trials == 2 and cfg.scenario == "tiny"

    def test_presets_parse(self):
        for name in bench.PRESETS:
            cfg = bench.preset_config(name, trials=1)
            assert cfg.trials == 1

    def test_presets_pinned(self):
        digest = hashlib.sha256(json.dumps(bench.PRESETS, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "6221d4027acfb2286372ebf67293e310af68cd242d6064bac2d449e42bc5ca2d")

    def test_presets_share_no_containers(self):
        def containers(obj):
            if isinstance(obj, (dict, list)):
                yield id(obj)
                for value in obj.values() if isinstance(obj, dict) else obj:
                    yield from containers(value)

        ids = [i for preset in bench.PRESETS.values() for i in containers(preset)]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("graph, defaults, generator", [
        ({"kind": "watts_strogatz", "n": 40}, {"k": 5, "beta": 0.1},
         lambda seed: graphs.watts_strogatz(40, 5, 0.1, seed)),
        ({"kind": "random_geometric", "n": 40}, {"radius": 0.6, "kernel_width": None},
         lambda seed: graphs.random_geometric(40, 0.6, 0.3, seed)),
    ])
    def test_graph_defaults_filled(self, graph, defaults, generator):
        cfg = tiny_config(graph=graph)
        assert cfg.graph == {**graph, **defaults}
        g, ref = bench.build_graph(cfg), generator([cfg.master_seed, 0])
        assert g.n == ref.n
        for name in ("i", "j", "w"):
            assert np.array_equal(getattr(g, name), getattr(ref, name))

    def test_file_graph_with_bandwidth_step_parses(self):
        cfg = tiny_config(
            graph={"kind": "file", "path": "graph.edges"},
            signal={"bandwidth_min": 10, "bandwidth_max": 20, "bandwidth_step": 5,
                    "snr_db_grid": [10.0]},
        )
        assert cfg.signal["bandwidth_step"] == 5 and cfg.signal["coeff_std"] == 0.5

    @pytest.mark.parametrize("section, key", [
        ("signal", "bandwith_step"),
        ("graph", "kernal_width"),
        ("graph", "path"),
    ])
    def test_unknown_section_keys_rejected(self, section, key):
        data = json.loads(json.dumps(TINY))
        data[section][key] = 4
        with pytest.raises(ValueError, match=f"unknown .*{section} keys: .*{key}"):
            bench.config_from_dict(data)

    @pytest.mark.parametrize("section, key", [
        ("signal", "bandwidth_min"),
        ("signal", "snr_db_grid"),
        ("graph", "n"),
    ])
    def test_missing_section_keys_rejected(self, section, key):
        data = json.loads(json.dumps(TINY))
        del data[section][key]
        with pytest.raises(ValueError, match=f"missing .*{section} keys: .*{key}"):
            bench.config_from_dict(data)

    @pytest.mark.parametrize("key", ["graph", "signal"])
    def test_missing_section_rejected(self, key):
        data = json.loads(json.dumps(TINY))
        del data[key]
        with pytest.raises(ValueError, match=f"missing config keys: .*{key}"):
            bench.config_from_dict(data)

    @pytest.mark.parametrize("graph", [{"n": 40}, {"kind": "grid", "n": 40}])
    def test_unknown_graph_kind_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown graph kind"):
            tiny_config(graph=graph)


    @pytest.mark.parametrize("section, key, value", [
        (None, "trials", "2"),
        (None, "trials", True),
        (None, "trials", 2.0),
        (None, "master_seed", 1.5),
        (None, "budget_rule", "4"),
        (None, "budget_rule", math.inf),
        (None, "methods", "proposed"),
        (None, "criterion", 1),
        (None, "scenario", 3),
        (None, "graph", [40]),
        (None, "signal", "none"),
        ("signal", "snr_db_grid", 10),
        ("signal", "snr_db_grid", ["10"]),
        ("signal", "snr_db_grid", [True]),
        ("signal", "bandwidth_min", 2.0),
        ("signal", "bandwidth_step", True),
        ("signal", "coeff_std", "0.5"),
        ("graph", "n", "20"),
        ("graph", "radius", None),
        ("graph", "kernel_width", math.nan),
        ("graph", "kernel_width", None),
        ("signal", "snr_db_grid", [math.nan]),
        ("signal", "snr_db_grid", [10.0, -math.inf]),
        (None, "schema", 2),
        (None, "schema", "x"),
        (None, "schema", None),
        (None, "schema", True),
    ])
    def test_value_types_checked(self, section, key, value):
        data = json.loads(json.dumps(TINY))
        (data if section is None else data[section])[key] = value
        with pytest.raises(ValueError, match=key):
            bench.config_from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("bandwidth_min", 0),
        ("bandwidth_step", 0),
    ])
    def test_bandwidth_below_one_rejected(self, key, value):
        data = json.loads(json.dumps(TINY))
        data["signal"][key] = value
        with pytest.raises(ValueError, match=key):
            bench.config_from_dict(data)

    @pytest.mark.parametrize("rule", [0, -4.0, 0.1, 1e308])
    def test_budget_below_one_rejected(self, rule):
        # K = 3: round(0.1 * 3) = 0 samples, and 1e308 * 3 is no number of samples
        with pytest.raises(ValueError, match="budget_rule"):
            tiny_config(budget_rule=rule)

    def test_budget_rule_checked_at_bandwidth_max(self):
        # 1e307 * 3 is a budget, 1e307 * 30 overflows
        signal = {**TINY["signal"], "bandwidth_max": 30}
        with pytest.raises(ValueError, match=r"budget_rule 1e\+307 .* at bandwidth 30"):
            tiny_config(budget_rule=1e307, signal=signal)

    def test_graph_kind_must_be_a_name(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            tiny_config(graph={"kind": ["file"], "path": "graph.edges"})

    def test_integral_and_numeric_types_accepted(self):
        cfg = tiny_config(budget_rule=3, master_seed=np.int64(7),
                          signal={"bandwidth_min": 3, "bandwidth_max": 3,
                                  "snr_db_grid": [0, 2.5, "Infinity"]})
        assert cfg.signal["snr_db_grid"] == [0.0, 2.5, math.inf]
        assert all(type(s) is float for s in cfg.signal["snr_db_grid"])

    @pytest.mark.parametrize("data", [None, 3, [], "x"])
    def test_config_must_be_an_object(self, tmp_path, data):
        with pytest.raises(ValueError, match="must be a JSON object"):
            bench.config_from_dict(data)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="must be a JSON object"):
            bench.load_config(path)

    @pytest.mark.parametrize("kind, generator", [
        ("watts_strogatz", graphs.watts_strogatz),
        ("random_geometric", graphs.random_geometric),
        ("file", graphs.load_edge_list),
    ])
    def test_graph_keys_are_generator_parameters(self, kind, generator):
        # a renamed generator parameter must fail here, not in a user's config
        params = set(inspect.signature(generator).parameters) - {"seed"}
        assert set(bench._SCHEMA["graph"][kind]) == params

    def test_infinite_snr_written_as_inf(self, tmp_path):
        rec = bench.TrialRecord("s", "m3", "a", 3, 12, math.inf, 0, 0.5, None, 0.0)
        bench.write_records_csv([rec], tmp_path / "records.csv")
        row = (tmp_path / "records.csv").read_text().splitlines()[2].split(",")
        assert row[5] == "inf"


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema: 1"
    return list(csv.reader(lines[1:]))


class TestCsv:
    def test_records_and_summary_round_trip(self, tmp_path):
        records = [
            bench.TrialRecord("s", "m1", "a", 3, 12, 10.0, 0, math.nan, None, 0.0,
                              "failed:RankDeficientSampling"),
            bench.TrialRecord("s", "m1", "a", 3, 12, 10.0, 1, 0.1, None, 1.5),
            bench.TrialRecord("s", "proposed", "d", 4, 16, math.inf, 0, 1 / 3,
                              1e-7, 2.25),
            bench.TrialRecord("s", "proposed", "d", 4, 16, math.inf, 1, 0.5,
                              1e-7, 0.0),
        ]
        bench.write_records_csv(records, tmp_path / "records.csv")
        assert read_csv(tmp_path / "records.csv") == [
            bench.CSV_COLUMNS,
            ["s", "m1", "a", "3", "12", "10.0", "0", "nan", "", "0.0",
             "failed:RankDeficientSampling"],
            ["s", "m1", "a", "3", "12", "10.0", "1", "0.1", "", "1.5", "ok"],
            ["s", "proposed", "d", "4", "16", "inf", "0", "0.3333333333333333",
             "1e-07", "2.25", "ok"],
            ["s", "proposed", "d", "4", "16", "inf", "1", "0.5", "1e-07", "0.0", "ok"],
        ]
        bench.write_summary_csv(bench.summarize(records), tmp_path / "summary.csv")
        std = repr(float(np.std([1 / 3, 0.5], ddof=1)))
        assert read_csv(tmp_path / "summary.csv") == [
            bench.SUMMARY_COLUMNS,
            ["s", "m1", "3", "10.0", "0.1", "0.0", "1", "1"],
            ["s", "proposed", "4", "inf", repr((1 / 3 + 0.5) / 2), std, "2", "0"],
        ]

    @pytest.mark.parametrize("criterion", ["a", "e"])
    def test_record_numbers_are_python_numbers(self, criterion):
        # csv writes a float by repr, and repr(np.float64(x)) is "np.float64(x)"
        records = [r for rule in (4.0, 0.5)  # 0.5: every method fails
                   for r in bench.run_scenario(tiny_config(criterion=criterion,
                                                           budget_rule=rule))]
        assert {r.status == "ok" for r in records} == {True, False}
        rows = records + bench.summarize(records)
        for r in rows:
            for f in fields(r):
                value = getattr(r, f.name)
                assert type(value) in (str, int, float) or value is None, (f.name, value)

    def test_all_failed_group_has_nan_mean(self, tmp_path):
        rec = bench.TrialRecord("s", "m1", "a", 3, 2, 0.0, 0, math.nan, None, 0.0,
                                "failed:RankDeficientSampling")
        bench.write_summary_csv(bench.summarize([rec]), tmp_path / "summary.csv")
        assert read_csv(tmp_path / "summary.csv")[1] == [
            "s", "m1", "3", "0.0", "nan", "0.0", "0", "1"]


class TestRunScenario:
    def test_noiseless_exact_for_all_methods(self):
        records = bench.run_scenario(tiny_config(), measure_time=False)
        assert len(records) == 2 * 3  # trials x methods, one grid point
        for rec in records:
            assert rec.status == "ok"
            assert rec.error_l2 <= 1e-8

    def test_grid_bookkeeping(self):
        cfg = tiny_config(
            signal={"bandwidth_min": 3, "bandwidth_max": 5,
                    "snr_db_grid": [10.0, 20.0]},
            trials=3,
            methods=["proposed", "m3"],
        )
        records = bench.run_scenario(cfg, measure_time=False)
        assert len(records) == 3 * 2 * 2 * 3  # bandwidths x snrs x methods x trials

    def test_record_order_and_gaps(self):
        cfg = tiny_config(signal={"bandwidth_min": 3, "bandwidth_max": 4,
                                  "snr_db_grid": [10.0, 20.0]})
        records = bench.run_scenario(cfg, measure_time=False)
        assert [(r.bandwidth, r.snr_db, r.trial, r.method) for r in records] == [
            (k, snr, trial, method) for k in (3, 4) for snr in (10.0, 20.0)
            for trial in range(2) for method in ("proposed", "m1", "m3")]
        assert all((r.solver_gap is None) == (r.method == "m1") for r in records)

    def test_deterministic_csv_bytes(self, tmp_path):
        paths = []
        for run in range(2):
            records = bench.run_scenario(tiny_config(), measure_time=False)
            path = tmp_path / f"run{run}.csv"
            bench.write_records_csv(records, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_shared_trial_inputs(self):
        cfg = tiny_config()
        a = bench.trial_inputs(cfg, 0, 3, 12, 1)
        b = bench.trial_inputs(cfg, 0, 3, 12, 1)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = bench.trial_inputs(cfg, 0, 3, 12, 2)
        assert not np.array_equal(a[1], c[1])

    def test_observation_from_one_noise_level(self, monkeypatch):
        # each record's error is BLUE on f[seq] + sigma(f, snr) * z[:M], with
        # f and z rebuilt from the trial's shared inputs
        blue_fn, seqs = estimation.blue_estimate, []

        def blue(basis, bandwidth, seq, y, f_true=None):
            seqs.append(seq)
            return blue_fn(basis, bandwidth, seq, y, f_true=f_true)

        monkeypatch.setattr(estimation, "blue_estimate", blue)
        cfg = tiny_config(signal={"bandwidth_min": 3, "bandwidth_max": 4,
                                  "snr_db_grid": [0.0, 10.0]})
        records = bench.run_scenario(cfg, measure_time=False)
        basis = spectral.eigendecompose(graphs.laplacian(bench.build_graph(cfg)))
        points = [(k, snr) for k in (3, 4) for snr in (0.0, 10.0)]
        assert len(seqs) == len(records) == len(points) * 2 * 3
        for rec, seq in zip(records, seqs):
            gi = points.index((rec.bandwidth, rec.snr_db))
            coeffs, z = bench.trial_inputs(cfg, gi, rec.bandwidth, rec.budget, rec.trial)
            f = spectral.synthesize_bandlimited(basis, coeffs)
            y = f[seq.indices] + estimation.noise_std_for_snr(f, rec.snr_db) * z[: seq.budget]
            ref = blue_fn(basis, rec.bandwidth, seq, y, f_true=f)
            assert rec.status == "ok" and rec.error_l2 == ref.error_l2

    def test_noise_level_once_per_trial(self, monkeypatch):
        std_fn, calls = estimation.noise_std_for_snr, []

        def std(*args):
            calls.append(args)
            return std_fn(*args)

        monkeypatch.setattr(estimation, "noise_std_for_snr", std)
        cfg = tiny_config(signal={"bandwidth_min": 3, "bandwidth_max": 4,
                                  "snr_db_grid": [10.0, 20.0]}, trials=3)
        records = bench.run_scenario(cfg, measure_time=False)
        assert len(records) == 4 * 3 * 3  # grid points x trials x methods
        assert len(calls) == 4 * 3

    def test_later_solve_failure_ends_the_run(self, monkeypatch):
        # each bandwidth is solved right before its trials, so a solve that
        # raises at the second bandwidth ends the run after the first's trials
        solve_fn, blue_fn, blue_calls = design.solve_relaxed, estimation.blue_estimate, []

        def solve(rows, criterion):
            if rows.shape[1] == 4:
                raise ValueError("solve failed")
            return solve_fn(rows, criterion)

        monkeypatch.setattr(design, "solve_relaxed", solve)
        monkeypatch.setattr(estimation, "blue_estimate",
                            lambda *a, **kw: blue_calls.append(a[1]) or blue_fn(*a, **kw))
        cfg = tiny_config(signal={"bandwidth_min": 3, "bandwidth_max": 4,
                                  "snr_db_grid": [10.0, 20.0]})
        with pytest.raises(ValueError, match="solve failed"):
            bench.run_scenario(cfg, measure_time=False)
        assert blue_calls == [3] * (2 * 2 * 3)  # snrs x trials x methods

    def test_failures_recorded_not_raised(self):
        # budget_rule below 1 starves the baselines of rank
        cfg = tiny_config(budget_rule=0.5, methods=["m1"])
        records = bench.run_scenario(cfg, measure_time=False)
        assert all(r.status.startswith("failed:") for r in records)
        assert all(math.isnan(r.error_l2) for r in records)


def traced_allocation(monkeypatch):
    """Patch `design.quantize_raw` and `design.allocate_from_weights` to log
    each rounding draw and each allocation's draw, as (budget, raw bytes),
    and each allocation's result; returns the three lists."""
    quantize_fn, alloc_fn = design.quantize_raw, design.allocate_from_weights
    draws, allocated, results = [], [], []

    def quantize(weights, budget, rng):
        raw = quantize_fn(weights, budget, rng)
        draws.append((budget, raw.tobytes()))
        return raw

    def alloc(rows, weights, budget, raw):
        allocated.append((budget, raw.tobytes()))
        results.append(alloc_fn(rows, weights, budget, raw))
        return results[-1]

    monkeypatch.setattr(design, "quantize_raw", quantize)
    monkeypatch.setattr(design, "allocate_from_weights", alloc)
    return draws, allocated, results


class TestBenchmarkHooks:
    """The benchmark's tracer times and spot-checks BLUE and the allocation by
    patching these module attributes, so `run_scenario` must reach them
    through the modules, once per record and once per distinct rounding draw
    of a bandwidth."""

    def test_run_scenario_calls_module_attributes(self, monkeypatch):
        blue_fn = estimation.blue_estimate
        blue_calls = []

        def blue(*args, **kwargs):
            blue_calls.append(list(inspect.signature(blue_fn).bind(*args, **kwargs).arguments))
            return blue_fn(*args, **kwargs)

        monkeypatch.setattr(estimation, "blue_estimate", blue)
        draws, allocated, _ = traced_allocation(monkeypatch)
        cfg = tiny_config(
            signal={"bandwidth_min": 3, "bandwidth_max": 4, "snr_db_grid": [10.0, 20.0]},
            trials=3,
        )
        records = bench.run_scenario(cfg, measure_time=False)
        assert all(r.status == "ok" for r in records)
        assert len(blue_calls) == len(records) == 2 * 2 * 3 * 3
        assert all(names == ["basis", "bandwidth", "seq", "y", "f_true"]
                   for names in blue_calls)
        assert len(draws) == sum(r.method == "proposed" for r in records) == 12
        assert sorted(allocated) == sorted(set(draws))

    def test_traced_names_and_fields(self, monkeypatch, tmp_path):
        """The tracer reads the bound `rows` and `criterion` of each relaxed
        solve and the `.p` of its result, and `result[1]` of each allocation;
        it loads a config with `load_config` and times `build_graph`."""
        solve_fn = design.solve_relaxed
        solves = []

        def solve(*args, **kwargs):
            result = solve_fn(*args, **kwargs)
            solves.append((inspect.signature(solve_fn).bind(*args, **kwargs).arguments,
                           result))
            return result

        monkeypatch.setattr(design, "solve_relaxed", solve)
        draws, allocated, results = traced_allocation(monkeypatch)
        gpath, cpath = tmp_path / "graph.edges", tmp_path / "cfg.json"
        graphs.save_edge_list(graphs.random_geometric(40, 0.5, 0.25, seed=1), gpath)
        cpath.write_text(json.dumps(dict(
            TINY, graph={"kind": "file", "path": str(gpath)},
            signal={"bandwidth_min": 3, "bandwidth_max": 4, "snr_db_grid": [10.0]})))
        cfg = bench.load_config(cpath)
        g = bench.build_graph(cfg)
        assert isinstance(g, graphs.WeightedGraph) and g.n == 40
        spectral.eigendecompose(graphs.laplacian(g))
        records = bench.run_scenario(cfg, measure_time=False)
        assert [list(call) for call, _ in solves] == [["rows", "criterion"]] * 2
        for call, weights in solves:
            assert call["criterion"].value == "a"
            assert weights.p.shape == (call["rows"].shape[0],)
        assert len(draws) == sum(r.method == "proposed" for r in records) == 4
        assert sorted(allocated) == sorted(set(draws))
        assert all(isinstance(result[1], int) for result in results)

    @pytest.mark.parametrize("module, name", [
        (graphs, "load_edge_list"), (graphs, "random_geometric"),
        (graphs, "watts_strogatz"), (graphs, "laplacian"),
        (spectral, "eigendecompose"), (spectral, "synthesize_bandlimited"),
        (design, "solve_relaxed"), (design, "duality_gap"),
        (design, "allocate_from_weights"), (baselines, "greedy_sigma_min"),
        (baselines, "top_m_selection"), (estimation, "sample_with_noise"),
        (estimation, "blue_estimate"),
        (bench, "trial_inputs"), (bench, "run_scenario"), (bench, "summarize"),
        (bench, "write_records_csv"), (bench, "write_summary_csv"),
    ])
    def test_traced_span_names_exist(self, module, name):
        # the tracer reports each layer metric under the span "<module>.<name>"
        fn = getattr(module, name)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__


GROUPED_SIGNAL = {"bandwidth_min": 3, "bandwidth_max": 4, "snr_db_grid": [10.0, 20.0]}


def ungrouped_proposed(cfg):
    """(K, SNR, trial, error_l2, status) of each proposed record, from a
    loop that allocates every trial's rounding draw afresh."""
    basis = spectral.eigendecompose(graphs.laplacian(bench.build_graph(cfg)))
    criterion = design.Criterion(cfg.criterion)
    sig = cfg.signal
    bandwidths = range(sig["bandwidth_min"], sig["bandwidth_max"] + 1, sig["bandwidth_step"])
    grid = [(k, snr) for k in bandwidths for snr in sig["snr_db_grid"]]
    mi = cfg.methods.index("proposed")
    out = []
    for gi, (k, snr) in enumerate(grid):
        budget = int(round(cfg.budget_rule * k))
        rows = spectral.design_rows(basis, k)
        weights = design.solve_relaxed(rows, criterion)
        for trial in range(cfg.trials):
            coeffs, z = bench.trial_inputs(cfg, gi, k, budget, trial)
            f = spectral.synthesize_bandlimited(basis, coeffs)
            raw = design.quantize_raw(
                weights, budget, [cfg.master_seed, bench._ROLE_METHOD, mi, gi, trial])
            try:
                alloc, _ = design.allocate_from_weights(rows, weights, budget, raw)
                y = f[alloc.indices] + estimation.noise_std_for_snr(f, snr) * z
                err = estimation.blue_estimate(basis, k, alloc, y, f_true=f).error_l2
                status = "ok"
            except GSampleError as exc:
                err, status = math.nan, f"failed:{type(exc).__name__}"
            out.append((k, snr, trial, err, status))
    return out


class TestTrialGrouping:
    """Proposed trials of one bandwidth whose rounding draws are equal share
    one allocation, and their records are those of one allocation per trial."""

    @pytest.mark.parametrize("criterion", ["a", "d", "e"])
    def test_records_match_one_allocation_per_trial(self, criterion):
        cfg = tiny_config(criterion=criterion, trials=20, signal=GROUPED_SIGNAL)
        records = bench.run_scenario(cfg, measure_time=False)
        proposed = [(r.bandwidth, r.snr_db, r.trial, r.error_l2, r.status)
                    for r in records if r.method == "proposed"]
        assert proposed == ungrouped_proposed(cfg)
        assert all(r.status == "ok" for r in records)

    def test_one_allocation_per_distinct_draw(self, monkeypatch):
        draws, allocated, results = traced_allocation(monkeypatch)
        repeat, expanded = np.repeat, []
        monkeypatch.setattr(np, "repeat", lambda *a: expanded.append(1) or repeat(*a))
        cfg = tiny_config(criterion="d", trials=20, methods=["proposed"],
                          signal=GROUPED_SIGNAL)
        records = bench.run_scenario(cfg, measure_time=False)
        assert len(draws) == len(records) == 2 * 2 * 20
        assert sorted(allocated) == sorted(set(draws))
        assert len(allocated) < len(draws)  # D's draws repeat on this graph
        # rank check, observation and BLUE of every trial sharing a draw read one sequence
        assert len(expanded) == len(results)

    def test_failing_draw_fails_every_trial_that_shares_it(self, monkeypatch):
        # a budget of 2 cannot span K = 4: every draw exhausts its shifts
        draws, allocated, results = traced_allocation(monkeypatch)
        cfg = tiny_config(budget_rule=0.5, trials=10, methods=["proposed"],
                          signal={"bandwidth_min": 4, "bandwidth_max": 4,
                                  "snr_db_grid": [10.0]})
        records = bench.run_scenario(cfg, measure_time=False)
        assert all(r.status == "failed:FallbackExhausted" for r in records)
        assert len(set(draws)) < len(draws) == len(records)  # some trials share a draw
        assert allocated == draws and results == []  # a failure is not kept


class TestSummarize:
    def test_single_record(self):
        records = bench.run_scenario(tiny_config(trials=1, methods=["m3"]),
                                     measure_time=False)
        summary = bench.summarize(records)
        assert len(summary) == 1
        assert summary[0].mean_error == records[0].error_l2

    def test_mean_of_two(self):
        recs = bench.run_scenario(tiny_config(trials=2, methods=["m3"]),
                                  measure_time=False)
        recs[0].error_l2, recs[1].error_l2 = 3.0, 5.0
        row = bench.summarize(recs)[0]
        assert row.mean_error == pytest.approx(4.0)

    def test_matches_recomputation(self, rng):
        cfg = tiny_config(
            trials=5,
            signal={"bandwidth_min": 3, "bandwidth_max": 3, "snr_db_grid": [5.0]},
        )
        records = bench.run_scenario(cfg, measure_time=False)
        summary = {(r.method): r for r in bench.summarize(records)}
        for method in cfg.methods:
            vals = [r.error_l2 for r in records if r.method == method]
            assert summary[method].mean_error == pytest.approx(np.mean(vals))
            assert summary[method].std_error == pytest.approx(np.std(vals, ddof=1))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            bench.summarize([])
