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
