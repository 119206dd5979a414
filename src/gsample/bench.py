"""Seeded Monte Carlo benchmark: proposed design vs greedy / top-M baselines."""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import dataclass, fields

import numpy as np

from . import baselines, design, estimation, graphs, spectral
from .exceptions import GSampleError

CSV_COLUMNS = [
    "scenario",
    "method",
    "criterion",
    "K",
    "M",
    "snr_db",
    "trial",
    "error_l2",
    "solver_gap",
    "wall_ms",
    "status",
]

KNOWN_METHODS = ("proposed", "m1", "m3")

# substream roles under the master seed
_ROLE_GRAPH = 0
_ROLE_SIGNAL = 1
_ROLE_NOISE = 2
_ROLE_METHOD = 3

# graph kind -> (required keys, optional keys) that build_graph reads
_GRAPH_KEYS = {
    "watts_strogatz": ({"n"}, {"k", "beta"}),
    "random_geometric": ({"n"}, {"radius", "kernel_width"}),
    "file": ({"path"}, set()),
}
_SIGNAL_REQUIRED = {"bandwidth_min", "bandwidth_max", "snr_db_grid"}
_SIGNAL_DEFAULTS = {"coeff_mean": 1.0, "coeff_std": 0.5, "bandwidth_step": 1}

# value type of every config key; keys not listed take a finite real number
_INT_KEYS = {"trials", "master_seed", "bandwidth_min", "bandwidth_max",
             "bandwidth_step", "n", "k"}
_TEXT_KEYS = {"kind", "path", "criterion", "scenario"}
_LIST_KEYS = {"snr_db_grid", "methods"}
_DICT_KEYS = {"graph", "signal"}


def _check_keys(section: str, data: dict, required: set, optional) -> None:
    missing = required - set(data)
    unknown = set(data) - required - set(optional)
    if missing:
        raise ValueError(f"missing {section} keys: {sorted(missing)}")
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_type(key: str, value) -> None:
    """Raise ValueError naming `key` unless `value` has the type that key takes."""
    if key in _INT_KEYS:
        ok = _is_real(value) and isinstance(value, numbers.Integral)
        expected = "an integer"
    elif key in _TEXT_KEYS:
        ok, expected = isinstance(value, str), "a string"
    elif key in _LIST_KEYS:
        ok, expected = isinstance(value, (list, tuple)), "a list"
    elif key in _DICT_KEYS:
        ok, expected = isinstance(value, dict), "an object"
    else:
        ok, expected = _is_real(value) and math.isfinite(value), "a finite number"
    if not ok:
        raise ValueError(f"{key} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    graph: dict
    signal: dict
    budget_rule: float = 4.0
    trials: int = 200
    methods: tuple = KNOWN_METHODS
    criterion: str = "a"
    master_seed: int = 0
    scenario: str = "scenario"

    def __post_init__(self):
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}")
        kind = self.graph.get("kind")
        if not isinstance(kind, str) or kind not in _GRAPH_KEYS:
            raise ValueError(
                f"unknown graph kind {kind!r}; choose from {sorted(_GRAPH_KEYS)}"
            )
        required, optional = _GRAPH_KEYS[kind]
        _check_keys(f"{kind} graph", self.graph, {"kind", *required}, optional)
        _check_keys("signal", self.signal, _SIGNAL_REQUIRED, _SIGNAL_DEFAULTS)
        for key, value in self.graph.items():
            _check_type(key, value)
        sig = {**_SIGNAL_DEFAULTS, **self.signal}
        for key, value in sig.items():
            _check_type(key, value)
        grid = [math.inf if s in ("inf", "Infinity") else s for s in sig["snr_db_grid"]]
        if not grid:
            raise ValueError("snr_db_grid must be nonempty")
        if not all(_is_real(s) for s in grid):
            raise ValueError(f"snr_db_grid must hold numbers, got {grid!r}")
        sig["snr_db_grid"] = [float(s) for s in grid]
        if sig["bandwidth_min"] < 1 or sig["bandwidth_step"] < 1:
            raise ValueError("bandwidth_min and bandwidth_step must be >= 1")
        if sig["bandwidth_min"] > sig["bandwidth_max"]:
            raise ValueError("bandwidth_min exceeds bandwidth_max")
        if round(self.budget_rule * sig["bandwidth_min"]) < 1:
            raise ValueError(
                f"budget_rule {self.budget_rule} gives a budget below 1 "
                f"at bandwidth_min {sig['bandwidth_min']}"
            )
        object.__setattr__(self, "signal", sig)
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(
            self, "criterion", design.Criterion.parse(self.criterion).value
        )


@dataclass
class TrialRecord:
    scenario: str
    method: str
    criterion: str
    bandwidth: int
    budget: int
    snr_db: float
    trial: int
    error_l2: float
    solver_gap: float | None
    wall_ms: float
    status: str = "ok"

    def row(self) -> list[str]:
        return [
            self.scenario,
            self.method,
            self.criterion,
            str(self.bandwidth),
            str(self.budget),
            _fmt(self.snr_db),
            str(self.trial),
            _fmt(self.error_l2),
            "" if self.solver_gap is None else _fmt(self.solver_gap),
            _fmt(self.wall_ms),
            self.status,
        ]


def _fmt(x: float) -> str:
    return repr(float(x))


def config_from_dict(data: dict) -> ScenarioConfig:
    optional = {"schema", *(f.name for f in fields(ScenarioConfig))}
    _check_keys("config", data, {"graph", "signal"}, optional)
    return ScenarioConfig(**{k: v for k, v in data.items() if k != "schema"})


def load_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def build_graph(cfg: ScenarioConfig) -> graphs.WeightedGraph:
    spec = dict(cfg.graph)
    kind = spec.pop("kind")
    seed = [cfg.master_seed, _ROLE_GRAPH]
    if kind == "watts_strogatz":
        return graphs.watts_strogatz(
            spec["n"], spec.get("k", 5), spec.get("beta", 0.1), seed
        )
    if kind == "random_geometric":
        radius = spec.get("radius", 0.6)
        return graphs.random_geometric(
            spec["n"], radius, spec.get("kernel_width", radius / 2.0), seed
        )
    return graphs.load_edge_list(spec["path"])


def trial_inputs(cfg: ScenarioConfig, grid_index: int, bandwidth: int,
                 budget: int, trial: int):
    """Shared per-trial randomness: GFT coefficients and the standard-normal
    noise vector every method observes."""
    sig = cfg.signal
    rng_signal = np.random.default_rng(
        [cfg.master_seed, _ROLE_SIGNAL, grid_index, trial]
    )
    coeffs = sig["coeff_mean"] + sig["coeff_std"] * rng_signal.standard_normal(bandwidth)
    rng_noise = np.random.default_rng(
        [cfg.master_seed, _ROLE_NOISE, grid_index, trial]
    )
    noise = rng_noise.standard_normal(budget)
    return coeffs, noise


def run_scenario(cfg: ScenarioConfig, measure_time: bool = True) -> list[TrialRecord]:
    """Run the full Monte Carlo protocol and return one record per
    (method, grid point, trial). Module errors become failed records."""
    g = build_graph(cfg)
    basis = spectral.eigendecompose(graphs.laplacian(g))
    criterion = design.Criterion.parse(cfg.criterion)
    sig = cfg.signal
    bandwidths = list(
        range(sig["bandwidth_min"], sig["bandwidth_max"] + 1, sig["bandwidth_step"])
    )
    grid = [(k, snr) for k in bandwidths for snr in sig["snr_db_grid"]]

    # per-bandwidth caches: the relaxed solve and deterministic baselines
    # do not depend on the trial or the SNR point
    cache: dict[int, dict] = {}
    for k in bandwidths:
        budget = int(round(cfg.budget_rule * k))
        rows = spectral.design_rows(basis, k)
        weights = design.solve_relaxed(rows, criterion)
        gap = design.duality_gap(rows, weights, criterion)
        entry = {"budget": budget, "rows": rows, "weights": weights, "gap": gap}
        if "m1" in cfg.methods:
            entry["m1_seq"] = baselines.greedy_sigma_min(rows, budget)
        if "m3" in cfg.methods:
            entry["m3_seq"] = baselines.top_m_selection(weights, budget)
        cache[k] = entry

    def run_point(gi, k, snr, trial):
        entry = cache[k]
        budget = entry["budget"]
        coeffs, noise = trial_inputs(cfg, gi, k, budget, trial)
        f = spectral.synthesize_bandlimited(basis, coeffs)
        out = []
        for mi, method in enumerate(cfg.methods):
            t0 = time.perf_counter() if measure_time else 0.0
            gap = entry["gap"] if method in ("proposed", "m3") else None
            try:
                if method == "proposed":
                    alloc, _ = design.allocate_from_weights(
                        entry["rows"],
                        entry["weights"],
                        budget,
                        seed=[cfg.master_seed, _ROLE_METHOD, mi, gi, trial],
                    )
                    seq = estimation.sequence_from_allocation(alloc)
                elif method == "m1":
                    seq = entry["m1_seq"]
                else:
                    seq = entry["m3_seq"]
                samples = estimation.sample_with_noise(f, seq, snr, noise=noise[: len(seq)])
                est = estimation.blue_estimate(basis, k, seq, samples.y, f_true=f)
                err, status = est.error_l2, "ok"
            except GSampleError as exc:
                err, status = math.nan, f"failed:{type(exc).__name__}"
            wall = (time.perf_counter() - t0) * 1000.0 if measure_time else 0.0
            out.append(
                TrialRecord(
                    scenario=cfg.scenario,
                    method=method,
                    criterion=cfg.criterion,
                    bandwidth=k,
                    budget=budget,
                    snr_db=snr,
                    trial=trial,
                    error_l2=err,
                    solver_gap=gap,
                    wall_ms=wall,
                    status=status,
                )
            )
        return out

    return [
        rec
        for gi, (k, snr) in enumerate(grid)
        for trial in range(cfg.trials)
        for rec in run_point(gi, k, snr, trial)
    ]


@dataclass
class SummaryRow:
    scenario: str
    method: str
    bandwidth: int
    snr_db: float
    mean_error: float
    std_error: float
    count: int
    failures: int


def summarize(records: list[TrialRecord]) -> list[SummaryRow]:
    """Mean/std of error_l2 grouped by (method, bandwidth, snr); failed
    trials are excluded from the moments and counted separately."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault(
            (rec.scenario, rec.method, rec.bandwidth, rec.snr_db), []
        ).append(rec)
    out = []
    for (scenario, method, k, snr), recs in groups.items():
        ok = [r.error_l2 for r in recs if r.status == "ok"]
        arr = np.asarray(ok, dtype=float)
        out.append(
            SummaryRow(
                scenario=scenario,
                method=method,
                bandwidth=k,
                snr_db=snr,
                mean_error=float(arr.mean()) if len(arr) else math.nan,
                std_error=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
                count=len(arr),
                failures=len(recs) - len(arr),
            )
        )
    return out


def write_records_csv(records: list[TrialRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# schema: 1\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())


def write_summary_csv(rows: list[SummaryRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# schema: 1\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["scenario", "method", "K", "snr_db", "mean_error_l2",
             "std_error_l2", "count", "failures"]
        )
        for r in rows:
            writer.writerow(
                [r.scenario, r.method, str(r.bandwidth), _fmt(r.snr_db),
                 _fmt(r.mean_error), _fmt(r.std_error), str(r.count),
                 str(r.failures)]
            )


PRESETS: dict[str, dict] = {
    "g1-f1-desk": {
        "scenario": "g1-f1-desk",
        "graph": {"kind": "watts_strogatz", "n": 200, "k": 5, "beta": 0.1},
        "signal": {"bandwidth_min": 10, "bandwidth_max": 20, "snr_db_grid": [10.0]},
    },
    "g1-f2-desk": {
        "scenario": "g1-f2-desk",
        "graph": {"kind": "watts_strogatz", "n": 200, "k": 5, "beta": 0.1},
        "signal": {
            "bandwidth_min": 15,
            "bandwidth_max": 15,
            "snr_db_grid": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
        },
    },
    "g2-f1-desk": {
        "scenario": "g2-f1-desk",
        "graph": {"kind": "random_geometric", "n": 200, "radius": 0.6,
                  "kernel_width": 0.3},
        "signal": {"bandwidth_min": 10, "bandwidth_max": 20, "snr_db_grid": [10.0]},
    },
    "g2-f2-desk": {
        "scenario": "g2-f2-desk",
        "graph": {"kind": "random_geometric", "n": 200, "radius": 0.6,
                  "kernel_width": 0.3},
        "signal": {
            "bandwidth_min": 15,
            "bandwidth_max": 15,
            "snr_db_grid": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
        },
    },
    "g1-f1-full": {
        "scenario": "g1-f1-full",
        "graph": {"kind": "watts_strogatz", "n": 1000, "k": 5, "beta": 0.1},
        "signal": {"bandwidth_min": 10, "bandwidth_max": 20, "snr_db_grid": [10.0]},
    },
    "g1-f2-full": {
        "scenario": "g1-f2-full",
        "graph": {"kind": "watts_strogatz", "n": 1000, "k": 5, "beta": 0.1},
        "signal": {
            "bandwidth_min": 15,
            "bandwidth_max": 15,
            "snr_db_grid": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
        },
    },
    "g2-f1-full": {
        "scenario": "g2-f1-full",
        "graph": {"kind": "random_geometric", "n": 500, "radius": 0.6,
                  "kernel_width": 0.3},
        "signal": {"bandwidth_min": 10, "bandwidth_max": 20, "snr_db_grid": [10.0]},
    },
    "g2-f2-full": {
        "scenario": "g2-f2-full",
        "graph": {"kind": "random_geometric", "n": 500, "radius": 0.6,
                  "kernel_width": 0.3},
        "signal": {
            "bandwidth_min": 15,
            "bandwidth_max": 15,
            "snr_db_grid": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
        },
    },
}


def preset_config(name: str, **overrides) -> ScenarioConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    data = json.loads(json.dumps(PRESETS[name]))
    data.update(overrides)
    return config_from_dict(data)
