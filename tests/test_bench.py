import json
import math

import numpy as np
import pytest

from gsample import bench

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

    @pytest.mark.parametrize("rule", [0, -4.0, 0.1])
    def test_budget_below_one_rejected(self, rule):
        # K = 3: round(0.1 * 3) = 0 samples
        with pytest.raises(ValueError, match="budget_rule"):
            tiny_config(budget_rule=rule)

    def test_graph_kind_must_be_a_name(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            tiny_config(graph={"kind": ["file"], "path": "graph.edges"})

    def test_integral_and_numeric_types_accepted(self):
        cfg = tiny_config(budget_rule=3, master_seed=np.int64(7),
                          signal={"bandwidth_min": 3, "bandwidth_max": 3,
                                  "snr_db_grid": [0, 2.5, "Infinity"]})
        assert cfg.signal["snr_db_grid"] == [0.0, 2.5, math.inf]
        assert all(type(s) is float for s in cfg.signal["snr_db_grid"])

    def test_infinite_snr_written_as_inf(self):
        rec = bench.TrialRecord("s", "m3", "a", 3, 12, math.inf, 0, 0.5, None, 0.0)
        assert rec.row()[5] == "inf"


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

    def test_failures_recorded_not_raised(self):
        # budget_rule below 1 starves the baselines of rank
        cfg = tiny_config(budget_rule=0.5, methods=["m1"])
        records = bench.run_scenario(cfg, measure_time=False)
        assert all(r.status.startswith("failed:") for r in records)
        assert all(math.isnan(r.error_l2) for r in records)


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
