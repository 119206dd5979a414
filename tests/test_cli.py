import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from gsample import cli, design, estimation, graphs, spectral


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# a valid design for the 6-node ring of estimate_args
DESIGN = {"m": [1, 1, 0, 0, 0, 0], "budget": 2, "bandwidth": 2}


def estimate_args(tmp_path, design_json):
    """`estimate` arguments for a 6-node ring, a design JSON and a ones signal."""
    gpath = tmp_path / "g.edges"
    graphs.save_edge_list(graphs.watts_strogatz(6, 2, 0.0, seed=0), gpath)
    dpath = tmp_path / "design.json"
    dpath.write_text(json.dumps(design_json))
    spath = tmp_path / "signal.txt"
    np.savetxt(spath, np.ones(6))
    return ["estimate", "--graph", str(gpath), "--design", str(dpath),
            "--signal", str(spath)]


class TestBound:
    def test_corollary_reference_point(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--sigma-min", "0.1", "--n", "10", "--eta", "0.9"
        )
        assert code == 0
        assert "M = 7" in out

    def test_certified_budget(self, capsys):
        # every quota lies within 1 of p_i * M, so M >= 1 / sigma_min = 10
        # keeps every draw invertible (Weyl's inequality)
        code, out, _ = run(
            capsys, "bound", "--sigma-min", "0.1", "--n", "10", "--eta", "0.9"
        )
        assert code == 0
        assert out.splitlines()[1] == (
            "certified invertible (every quota within 1 of p_i*M) at M >= 10")

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

    @pytest.mark.parametrize("sigma_min, n, eta", [
        ("1e-200", "10", "0.9"),  # sigma_min^2 underflows to 0
        ("1e-160", "10", "0.9"),  # the quotient overflows
        pytest.param("0.1", str(10**308), "0.9999999999999999",
                     id="1-eta^(1/n)-rounds-to-0"),
        ("nan", "10", "0.9"),
        ("inf", "10", "0.9"),
    ])
    def test_out_of_range_sigma_min_fails_cleanly(self, capsys, sigma_min, n, eta):
        code, out, err = run(capsys, "bound", "--sigma-min", sigma_min, "--n", n,
                             "--eta", eta)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "sigma_min" in err

    def test_budget_below_one_fails_before_any_output(self, capsys):
        code, out, err = run(capsys, "bound", "--sigma-min", "0.1", "--n", "10",
                             "--eta", "0.9", "--budget", "0")
        assert code == 1 and out == ""
        assert err == "error: budget must be >= 1, got 0\n"

    def test_budget_of_401_digits(self, capsys):
        code, out, _ = run(capsys, "bound", "--sigma-min", "0.1", "--n", "10",
                           "--eta", "0.9", "--budget", "1" + "0" * 400)
        assert code == 0
        assert "1.000000" in out

    @pytest.mark.parametrize("extra", [[], ["--budget", "10"]])
    def test_n_beyond_double_range_fails_cleanly(self, capsys, extra):
        n = "1" + "0" * 400
        code, out, err = run(capsys, "bound", "--sigma-min", "0.1", "--n", n,
                             "--eta", "0.9", *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: n 1000") and err.count("\n") == 1
        assert "double precision" in err


def test_module_runs_as_a_script():
    # `python -m gsample.cli` exits with main's return code
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "gsample.cli", "bound", "--sigma-min", "0.1",
            "--n", "10", "--eta", "0.9"]
    ok = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert ok.returncode == 0 and "M = 7" in ok.stdout
    refused = subprocess.run(argv + ["--budget", "0"], capture_output=True, text=True, env=env)
    assert refused.returncode == 1 and refused.stdout == ""
    assert refused.stderr == "error: budget must be >= 1, got 0\n"


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

    def test_zero_kernel_width_rejected(self, capsys, tmp_path):
        gpath = tmp_path / "g.edges"
        code, _, err = run(
            capsys, "generate-graph", "--kind", "random_geometric", "--n", "30",
            "--radius", "0.5", "--kernel-width", "0", "--out", str(gpath),
        )
        assert code == 1
        assert err.startswith("error:") and "kernel_width" in err
        assert not gpath.exists()

    @pytest.mark.parametrize("kind, flag, value", [
        ("random_geometric", "--k", "3"), ("random_geometric", "--beta", "0.9"),
        ("watts_strogatz", "--radius", "0.5"), ("watts_strogatz", "--kernel-width", "0.2"),
    ])
    def test_flag_of_other_kind_rejected(self, capsys, tmp_path, kind, flag, value):
        gpath = tmp_path / "g.edges"
        code, _, err = run(
            capsys, "generate-graph", "--kind", kind, "--n", "30", flag, value,
            "--out", str(gpath),
        )
        assert code == 1
        key = flag[2:].replace("-", "_")
        assert err.startswith("error:") and f"unknown {kind} graph keys: ['{key}']" in err
        assert not gpath.exists()

    def test_bad_graph_file_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1 1.0\n")
        code, _, err = run(
            capsys, "design", "--graph", str(bad), "--bandwidth", "2",
            "--budget", "4",
        )
        assert code == 1 and "error" in err

    def test_negative_infinite_snr_rejected(self, capsys, tmp_path):
        gpath = tmp_path / "g.edges"
        graphs.save_edge_list(graphs.watts_strogatz(6, 2, 0.0, seed=0), gpath)
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps({"m": [1, 1, 0, 0, 0, 0], "budget": 2, "bandwidth": 2}))
        spath = tmp_path / "signal.txt"
        np.savetxt(spath, np.ones(6))
        code, _, err = run(
            capsys, "estimate", "--graph", str(gpath), "--design", str(dpath),
            "--signal", str(spath), "--snr-db=-inf",
        )
        assert code == 1
        assert err.startswith("error:") and "SNR" in err

    def test_budget_beyond_the_rounding_fails_cleanly(self, capsys, tmp_path):
        gpath = tmp_path / "g.edges"
        graphs.save_edge_list(graphs.watts_strogatz(6, 2, 0.0, seed=0), gpath)
        budget = "1" + "0" * 20
        code, out, err = run(capsys, "design", "--graph", str(gpath), "--bandwidth", "1",
                             "--budget", budget)
        assert code == 1 and out == ""
        assert err == f"error: budget {budget} is above 2**53, too fine a grid to round to\n"

    @pytest.mark.parametrize("crit", ["a", "d"])
    def test_negative_seed_refused_on_and_off_the_rounding_grid(self, capsys, tmp_path, crit):
        # on this graph D at K = 15, M = 60 sits on the rounding grid and A does
        # not; the seed is refused either way, though only A draws a uniform
        gpath = tmp_path / "g.edges"
        graphs.save_edge_list(graphs.random_geometric(200, 0.6, 0.3, seed=0), gpath)
        code, out, err = run(capsys, "design", "--graph", str(gpath), "--bandwidth", "15",
                             "--budget", "60", "--criterion", crit, "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "error: expected non-negative integer\n"

    def test_out_of_memory_fails_cleanly(self, capsys, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(design, "design_pipeline", exhausted)
        gpath = tmp_path / "g.edges"
        graphs.save_edge_list(graphs.watts_strogatz(6, 2, 0.0, seed=0), gpath)
        code, out, err = run(capsys, "design", "--graph", str(gpath), "--bandwidth", "2",
                             "--budget", "4")
        assert code == 1 and out == ""
        assert err == "error: Unable to allocate 7.45 GiB for an array\n"

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_edge_weight_rejected(self, capsys, tmp_path, weight):
        gpath = tmp_path / "g.edges"
        gpath.write_text(f"# gsample-graph v1 n=3\n0 1 1.0\n1 2 {weight}\n")
        code, _, err = run(
            capsys, "design", "--graph", str(gpath), "--bandwidth", "2",
            "--budget", "4",
        )
        assert code == 1
        assert err.startswith("error:") and "line 3" in err and "weight" in err

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

    @pytest.mark.parametrize("design_json, words", [
        *[({k: v for k, v in DESIGN.items() if k != key}, "keys m, budget, bandwidth")
          for key in DESIGN],
        ([1, 1, 0, 0, 0, 0], "not an object"),
        ({**DESIGN, "m": {"0": 1, "1": 1}}, "m must be a list of numbers"),
        ({**DESIGN, "m": ["1", "1", 0, 0, 0, 0]}, "m must be a list of numbers"),
        ({**DESIGN, "bandwidth": 1.5}, "bandwidth must be an integer"),
        ({**DESIGN, "budget": 2.5}, "budget must be an integer"),
        ({**DESIGN, "bandwidth": "2"}, "bandwidth must be an integer"),
        ({**DESIGN, "bandwidth": True}, "bandwidth must be an integer"),
        ({**DESIGN, "bandwidth": [2]}, "bandwidth must be an integer"),
    ])
    def test_malformed_design_rejected(self, capsys, tmp_path, design_json, words):
        code, _, err = run(capsys, *estimate_args(tmp_path, design_json))
        assert code == 1
        assert err.startswith("error:") and words in err

    @pytest.mark.parametrize("m", [[1, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0]])
    def test_design_for_another_node_count_rejected(self, capsys, tmp_path, m):
        # quotas whose indices are all in range, but for a 5- or 7-node graph
        code, out, err = run(capsys, *estimate_args(tmp_path, {**DESIGN, "m": m}))
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"{len(m)} nodes" in err and "has 6" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_signal_rejected(self, capsys, tmp_path, value):
        args = estimate_args(tmp_path, DESIGN)
        (tmp_path / "signal.txt").write_text(f"1\n1\n{value}\n1\n1\n1\n")
        code, out, err = run(capsys, *args, "--snr-db", "10")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("text, size", [("1 1 1 1 1", 5), ("1 1 1 1 1 1 1", 7),
                                            ("1 1\n1 1\n1 1\n", 6)],
                             ids=["5-values", "7-values", "two-columns"])
    def test_signal_for_another_node_count_rejected(self, capsys, tmp_path, text, size):
        # one value per node: a 3 x 2 table of six values is refused too
        args = estimate_args(tmp_path, DESIGN)
        (tmp_path / "signal.txt").write_text(text)
        code, out, err = run(capsys, *args, "--snr-db", "10")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: signal has {size} values but the allocation 6 quotas"]

    def test_empty_signal_fails_cleanly(self, capsys, tmp_path):
        # NumPy warns that the file holds no data; the length check reports it
        args = estimate_args(tmp_path, DESIGN)
        (tmp_path / "signal.txt").write_text("")
        code, out, err = run(capsys, *args)
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: signal has 0 values but the allocation 6 quotas"]

    @pytest.mark.parametrize("quota", [2**63, -(2.0**63) - 2**11, 1e20],
                             ids=["2**63", "-2**63-2**11", "1e20"])
    def test_quotas_beyond_int64_fail_cleanly(self, capsys, tmp_path, quota):
        args = estimate_args(tmp_path, {**DESIGN, "m": [quota, 1, 0, 0, 0, 0]})
        code, out, err = run(capsys, *args)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "quotas must lie in [-2**63, 2**63)" in err

    @pytest.mark.parametrize("key", ["budget", "bandwidth"])
    def test_design_integer_beyond_float_range_fails_cleanly(self, capsys, tmp_path, key):
        # an int is checked as an int, never converted to a float
        code, out, err = run(capsys, *estimate_args(tmp_path, {**DESIGN, key: 10**400}))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_integral_float_design_accepted(self, capsys, tmp_path):
        design_json = {"m": [1.0, 1, 1, 0, 0, 0], "budget": 3.0, "bandwidth": 2.0}
        code, out, _ = run(capsys, *estimate_args(tmp_path, design_json))
        assert code == 0
        assert len(json.loads(out)["coeff_estimate"]) == 2


def bench_args(tmp_path, snr, **config):
    """`bench` arguments for a one-trial scenario at the SNR `snr`, with the
    top-level keys `config` added."""
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({
        "graph": {"kind": "watts_strogatz", "n": 20}, "trials": 1,
        "signal": {"bandwidth_min": 2, "bandwidth_max": 2, "snr_db_grid": [snr]}, **config}))
    return ["bench", "--config", str(cpath), "--no-timing",
            "--out", str(tmp_path / "records.csv")]


def design_args(tmp_path, text):
    """`design` arguments for an edge list with the given text."""
    gpath = tmp_path / "g.edges"
    gpath.write_text(text)
    return ["design", "--graph", str(gpath), "--bandwidth", "1", "--budget", "2"]


@pytest.mark.parametrize("argv, words", [
    (lambda tmp: estimate_args(tmp, DESIGN) + ["--snr-db=-3240"], "SNR -3240.0 dB"),
    (lambda tmp: estimate_args(tmp, DESIGN) + ["--snr-db=-3200"], "SNR -3200.0 dB"),
    (lambda tmp: bench_args(tmp, -3200), "SNR -3200.0 dB"),
    (lambda tmp: bench_args(tmp, 10.0, budget_rule=1e308), "budget_rule 1e+308"),
    (lambda tmp: design_args(tmp, "# gsample-graph v1 n=3\n1 99999999999999999999 1.0\n"),
     "out of range for n=3 (line 2)"),
    (lambda tmp: design_args(tmp, "# gsample-graph v1 n=99999999999999999999\n0 1 1.0\n"),
     "got 99999999999999999999 (line 1)"),
    (lambda tmp: design_args(tmp, "# gsample-graph v1 n=3\n0 1 1e308\n1 2 1e308\n"),
     "Laplacian has a non-finite entry"),
], ids=["snr-3240", "snr-3200", "bench-snr-3200", "bench-budget-rule", "index", "node-count",
        "laplacian"])
def test_inputs_beyond_double_or_integer_range_fail_cleanly(capsys, tmp_path, argv, words):
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and words in err


def test_non_finite_estimate_fails_without_writing(capsys, tmp_path):
    # the estimate of a signal at the double limit is beyond the double range
    # even rescaled; BLUE refuses it, with no warning, and nothing is written
    args = estimate_args(tmp_path, DESIGN)
    np.savetxt(tmp_path / "signal.txt", np.full(6, 1.7e308))
    epath = tmp_path / "estimate.json"
    code, out, err = run(capsys, *args, "--out", str(epath))
    assert code == 1 and out == "" and not epath.exists()
    assert err.splitlines() == [
        "error: observations must be finite and give an estimate within the double range"]


@pytest.mark.parametrize("extra, snr", [(["--snr-db", "5", "--seed", "3"], 5.0),
                                        ([], np.inf)], ids=["snr-5-seed-3", "noiseless"])
def test_estimate_observes_by_the_seed_protocol(capsys, tmp_path, extra, snr):
    # the observation is f[alloc.indices] plus noise_std_for_snr(f, snr) times
    # default_rng(--seed)'s first `budget` standard normals
    args = estimate_args(tmp_path, {"m": [2, 0, 1, 0, 1, 0], "budget": 4, "bandwidth": 2})
    f = np.array([0.5, -1.0, 2.0, 0.25, 3.0, -2.5])
    np.savetxt(tmp_path / "signal.txt", f)
    code, out, _ = run(capsys, *args, *extra)
    assert code == 0
    basis = spectral.eigendecompose(graphs.laplacian(graphs.watts_strogatz(6, 2, 0.0, seed=0)))
    alloc = design.SampleAllocation([2, 0, 1, 0, 1, 0], 4)
    sigma = estimation.noise_std_for_snr(f, snr)
    seed = int(extra[-1]) if extra else 0
    y = f[alloc.indices] + sigma * np.random.default_rng(seed).standard_normal(alloc.budget)
    est = estimation.blue_estimate(basis, 2, alloc, y, f_true=f)
    assert json.loads(out) == {
        "schema": 1,
        "coeff_estimate": est.coeff_estimate.tolist(),
        "signal_estimate": est.signal_estimate.tolist(),
        "error_l2": est.error_l2,
        "noise_std": sigma,
    }


def test_overflowing_snr_is_noiseless(capsys, tmp_path):
    outputs = {}
    for snr in ("3090", "1e308", None):
        extra = [] if snr is None else [f"--snr-db={snr}"]
        code, out, _ = run(capsys, *estimate_args(tmp_path, DESIGN), *extra)
        assert code == 0
        outputs[snr] = out
    assert outputs["3090"] == outputs["1e308"] == outputs[None]
    assert json.loads(outputs[None])["noise_std"] == 0.0
    records = {}
    for snr in (1e308, "Infinity"):
        assert run(capsys, *bench_args(tmp_path, snr))[0] == 0
        rows = list(csv.DictReader(
            (tmp_path / "records.csv").read_text().splitlines()[1:]))
        records[snr] = [(r["method"], r["error_l2"], r["status"]) for r in rows]
    assert records[1e308] == records["Infinity"]


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

    def test_e_criterion_gaps_are_certificates(self, capsys, tmp_path):
        cfg = {
            "scenario": "cli-e",
            "graph": {"kind": "watts_strogatz", "n": 30, "k": 3, "beta": 0.2},
            "signal": {"bandwidth_min": 2, "bandwidth_max": 4,
                       "snr_db_grid": [10.0]},
            "trials": 2,
            "criterion": "e",
        }
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        out_csv = tmp_path / "records.csv"
        code, _, _ = run(
            capsys, "bench", "--config", str(cpath), "--out", str(out_csv),
            "--no-timing",
        )
        assert code == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()[1:]))
        gaps = [float(r["solver_gap"]) for r in rows if r["method"] != "m1"]
        assert len(gaps) == 3 * 2 * 2  # bandwidths x trials x (proposed, m3)
        assert all(0.0 <= gap <= 1e-9 * 30 for gap in gaps)
        assert all(r["status"] == "ok" for r in rows)

    def test_config_missing_key_fails_cleanly(self, capsys, tmp_path):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps({
            "graph": {"kind": "watts_strogatz", "n": 30},
            "signal": {"bandwidth_max": 3, "snr_db_grid": [10.0]},
        }))
        code, _, err = run(
            capsys, "bench", "--config", str(cpath),
            "--out", str(tmp_path / "records.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and "bandwidth_min" in err

    @pytest.mark.parametrize("section, key, value", [
        (None, "trials", "2"),
        ("signal", "snr_db_grid", 10),
        ("graph", "n", "20"),
        ("signal", "bandwidth_min", 2.0),
        (None, "budget_rule", 0),
    ])
    def test_config_value_type_fails_cleanly(self, capsys, tmp_path, section, key, value):
        cfg = {
            "graph": {"kind": "watts_strogatz", "n": 20},
            "signal": {"bandwidth_min": 2, "bandwidth_max": 2, "snr_db_grid": [10.0]},
            "trials": 1,
        }
        (cfg if section is None else cfg[section])[key] = value
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        code, _, err = run(
            capsys, "bench", "--config", str(cpath),
            "--out", str(tmp_path / "records.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("snr", ["-Infinity", "NaN"])
    def test_undefined_snr_fails_cleanly(self, capsys, tmp_path, snr):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(
            '{"graph": {"kind": "watts_strogatz", "n": 20}, "trials": 1, '
            '"signal": {"bandwidth_min": 2, "bandwidth_max": 2, '
            f'"snr_db_grid": [10.0, {snr}]}}}}'
        )
        out_csv = tmp_path / "records.csv"
        code, _, err = run(capsys, "bench", "--config", str(cpath), "--out", str(out_csv))
        assert code == 1
        assert err.startswith("error:") and "SNR" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("overrides", [[], ["--trials", "1"]])
    @pytest.mark.parametrize("text", ["null", "3", "[]", '"x"'])
    def test_config_not_an_object_fails_cleanly(self, capsys, tmp_path, text, overrides):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(text)
        out_csv = tmp_path / "records.csv"
        code, _, err = run(capsys, "bench", "--config", str(cpath), *overrides,
                           "--out", str(out_csv))
        assert code == 1
        assert err.startswith("error:") and "JSON object" in err
        assert not out_csv.exists()

    def test_preset_with_overrides(self, capsys, tmp_path):
        out_csv = tmp_path / "records.csv"
        code, _, _ = run(
            capsys, "bench", "--preset", "g2-f2-desk", "--trials", "1",
            "--methods", "m3", "--seed", "9", "--out", str(out_csv),
            "--no-timing",
        )
        assert code == 0
        assert len(out_csv.read_text().splitlines()) == 2 + 6  # 6 SNR points

    def test_repeated_method_fails_cleanly(self, capsys, tmp_path):
        out_csv = tmp_path / "records.csv"
        code, _, err = run(
            capsys, "bench", "--preset", "g2-f2-desk", "--trials", "2",
            "--methods", "m1,m1", "--out", str(out_csv),
        )
        assert code == 1
        assert err.startswith("error:") and "'m1' is listed twice" in err
        assert not out_csv.exists()

    def test_usage_error_nonzero(self):
        with pytest.raises(SystemExit):
            cli.main(["bench"])  # missing --config/--preset


def bench_columns():
    from gsample.bench import CSV_COLUMNS

    return CSV_COLUMNS
