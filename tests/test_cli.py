import json

import numpy as np
import pytest

from gsample import cli, graphs, spectral


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBound:
    def test_corollary_reference_point(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--sigma-min", "0.1", "--n", "10", "--eta", "0.9"
        )
        assert code == 0
        assert "M = 7" in out

    def test_probability_at_budget(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--sigma-min", "0.1", "--n", "5", "--eta", "0.9",
            "--budget", "10",
        )
        assert code == 0
        assert "0.987047" in out

    def test_invalid_eta_fails(self, capsys):
        code, _, err = run(
            capsys, "bound", "--sigma-min", "0.1", "--n", "10", "--eta", "1.5"
        )
        assert code == 1
        assert "error" in err


class TestGraphAndDesign:
    def test_generate_design_estimate_round_trip(self, capsys, tmp_path):
        gpath = tmp_path / "g.edges"
        code, out, _ = run(
            capsys, "generate-graph", "--kind", "random_geometric",
            "--n", "30", "--radius", "0.5", "--seed", "3", "--out", str(gpath),
        )
        assert code == 0 and gpath.exists()

        dpath = tmp_path / "design.json"
        code, _, _ = run(
            capsys, "design", "--graph", str(gpath), "--bandwidth", "3",
            "--budget", "12", "--criterion", "a", "--out", str(dpath),
        )
        assert code == 0
        payload = json.loads(dpath.read_text())
        assert len(payload["m"]) == 30 and sum(payload["m"]) == 12
        assert payload["duality_gap"] <= 1e-6 * max(1.0, payload["relaxed_objective"])
        assert abs(sum(payload["p"]) - 1.0) < 1e-9

        # noiseless estimation of an exactly bandlimited signal recovers it
        g = graphs.load_edge_list(gpath)
        basis = spectral.eigendecompose(graphs.laplacian(g))
        f = spectral.synthesize_bandlimited(basis, np.array([1.0, -0.5, 2.0]))
        spath = tmp_path / "signal.txt"
        np.savetxt(spath, f)
        epath = tmp_path / "estimate.json"
        code, _, _ = run(
            capsys, "estimate", "--graph", str(gpath), "--design", str(dpath),
            "--signal", str(spath), "--out", str(epath),
        )
        assert code == 0
        est = json.loads(epath.read_text())
        assert est["error_l2"] <= 1e-8

    def test_bad_graph_file_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1 1.0\n")
        code, _, err = run(
            capsys, "design", "--graph", str(bad), "--bandwidth", "2",
            "--budget", "4",
        )
        assert code == 1 and "error" in err


    def test_fractional_quotas_rejected(self, capsys, tmp_path):
        gpath = tmp_path / "g.edges"
        graphs.save_edge_list(graphs.watts_strogatz(6, 2, 0.0, seed=0), gpath)
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps(
            {"m": [1.5, 1.5, 0, 0, 0, 0], "budget": 2, "bandwidth": 2}
        ))
        spath = tmp_path / "signal.txt"
        np.savetxt(spath, np.ones(6))
        code, _, err = run(
            capsys, "estimate", "--graph", str(gpath), "--design", str(dpath),
            "--signal", str(spath),
        )
        assert code == 1
        assert err.startswith("error:") and "integers" in err


class TestBench:
    def test_config_run_writes_csv(self, capsys, tmp_path):
        cfg = {
            "schema": 1,
            "scenario": "cli-tiny",
            "graph": {"kind": "random_geometric", "n": 30, "radius": 0.5,
                      "kernel_width": 0.25},
            "signal": {"bandwidth_min": 3, "bandwidth_max": 3,
                       "snr_db_grid": [10.0]},
            "trials": 2,
            "methods": ["proposed", "m3"],
            "criterion": "a",
            "master_seed": 5,
        }
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        out_csv = tmp_path / "records.csv"
        summary_csv = tmp_path / "summary.csv"
        code, out, _ = run(
            capsys, "bench", "--config", str(cpath), "--out", str(out_csv),
            "--summary", str(summary_csv), "--no-timing",
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "# schema: 1"
        assert lines[1] == ",".join(bench_columns())
        assert len(lines) == 2 + 2 * 2  # header rows + methods x trials
        assert summary_csv.exists()

    def test_preset_with_overrides(self, capsys, tmp_path):
        out_csv = tmp_path / "records.csv"
        code, _, _ = run(
            capsys, "bench", "--preset", "g2-f2-desk", "--trials", "1",
            "--methods", "m3", "--seed", "9", "--out", str(out_csv),
            "--no-timing",
        )
        assert code == 0
        assert len(out_csv.read_text().splitlines()) == 2 + 6  # 6 SNR points

    def test_usage_error_nonzero(self):
        with pytest.raises(SystemExit):
            cli.main(["bench"])  # missing --config/--preset


def bench_columns():
    from gsample.bench import CSV_COLUMNS

    return CSV_COLUMNS
