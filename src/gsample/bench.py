"""Seeded Monte Carlo benchmark: proposed design vs greedy / top-M baselines."""

from __future__ import annotations

import copy
import csv
import functools
import itertools
import json
import math
import numbers
import time
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from . import baselines, design, estimation, graphs, spectral
from .exceptions import GSampleError

CSV_COLUMNS = ["scenario", "method", "criterion", "K", "M", "snr_db", "trial", "error_l2",
               "solver_gap", "wall_ms", "status"]

SUMMARY_COLUMNS = ["scenario", "method", "K", "snr_db", "mean_error_l2",
                   "std_error_l2", "count", "failures"]

KNOWN_METHODS = ("proposed", "m1", "m3")

# substream roles under the master seed
_ROLE_GRAPH = 0
_ROLE_SIGNAL = 1
_ROLE_NOISE = 2
_ROLE_METHOD = 3


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


# value kind -> (test, what a value of that kind must be)
_KINDS = {
    int: (lambda v: _is_real(v) and isinstance(v, numbers.Integral), "an integer"),
    float: (lambda v: _is_real(v) and math.isfinite(v), "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, (list, tuple)), "a list"),
    dict: (lambda v: isinstance(v, dict), "an object"),
}
_REQUIRED = object()

# every config key: section -> key -> (value kind, default or _REQUIRED). A
# graph kind's keys are its generator's parameter names but `seed`; a None
# default leaves the value to the generator.
_SCHEMA = {
    "config": {"schema": (int, 1), "graph": (dict, _REQUIRED), "signal": (dict, _REQUIRED),
               "budget_rule": (float, 4.0), "trials": (int, 200),
               "methods": (list, KNOWN_METHODS), "criterion": (str, "a"),
               "master_seed": (int, 0), "scenario": (str, "scenario")},
    "signal": {"bandwidth_min": (int, _REQUIRED), "bandwidth_max": (int, _REQUIRED),
               "bandwidth_step": (int, 1), "snr_db_grid": (list, _REQUIRED),
               "coeff_mean": (float, 1.0), "coeff_std": (float, 0.5)},
    "graph": {
        "watts_strogatz": {"n": (int, _REQUIRED), "k": (int, 5), "beta": (float, 0.1)},
        "random_geometric": {"n": (int, _REQUIRED), "radius": (float, 0.6),
                             "kernel_width": (float, None)},
        "file": {"path": (str, _REQUIRED)},
    },
}


def _defaults(spec: dict) -> dict:
    return {key: default for key, (_, default) in spec.items() if default is not _REQUIRED}


def _checked(section: str, spec: dict, data: dict) -> dict:
    """`data` with the defaults of `spec` filled in. ValueError names the
    missing or unknown keys of `section`, or the first key whose value is
    not of its kind. A filled default passes, so a checked `data` checks
    again."""
    missing = sorted(key for key, (_, default) in spec.items()
                     if default is _REQUIRED and key not in data)
    if missing:
        raise ValueError(f"missing {section} keys: {missing}")
    unknown = sorted(set(data) - set(spec))
    if unknown:
        raise ValueError(f"unknown {section} keys: {unknown}")
    for key, value in data.items():
        kind, default = spec[key]
        test, expected = _KINDS[kind]
        if value is not default and not test(value):
            raise ValueError(f"{key} must be {expected}, got {value!r}")
    return {**_defaults(spec), **data}


def check_graph(graph: dict) -> dict:
    """A graph section with its kind's defaults filled in; ValueError for an
    unknown kind or a missing, unknown or mistyped key."""
    kind = graph.get("kind")
    if not isinstance(kind, str) or kind not in _SCHEMA["graph"]:
        raise ValueError(
            f"unknown graph kind {kind!r}; choose from {sorted(_SCHEMA['graph'])}"
        )
    return _checked(f"{kind} graph", {"kind": (str, _REQUIRED), **_SCHEMA["graph"][kind]},
                    graph)


def make_graph(graph: dict, seed) -> graphs.WeightedGraph:
    """The graph a checked graph section describes; `seed` seeds a generator."""
    params = dict(graph)
    kind = params.pop("kind")
    if kind == "file":
        return graphs.load_edge_list(**params)
    return getattr(graphs, kind)(**params, seed=seed)


def _budget(budget_rule: float, bandwidth: int) -> int:
    """The budget round(budget_rule * K) at bandwidth K; ValueError naming
    budget_rule when the product is not finite."""
    try:
        return round(budget_rule * bandwidth)
    except OverflowError:
        raise ValueError(f"budget_rule {budget_rule} overflows at bandwidth {bandwidth}") from None


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario; `config_from_dict` fills in the defaults."""

    graph: dict
    signal: dict
    budget_rule: float
    trials: int
    methods: tuple
    criterion: str
    master_seed: int
    scenario: str

    def __post_init__(self):
        _checked("config", _SCHEMA["config"],
                 {f.name: getattr(self, f.name) for f in fields(self)})
        # a trial index reaches `_uniforms` as one uint32 word
        if design._positive(self.trials, "trials") > 2**32:
            raise ValueError(f"trials must be at most 2**32, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be an integer >= 0, got {self.master_seed}")
        if not self.methods:
            raise ValueError("need at least one method")
        for i, m in enumerate(self.methods):
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}")
            if m in self.methods[:i]:
                raise ValueError(f"method {m!r} is listed twice")
        object.__setattr__(self, "graph", check_graph(self.graph))
        sig = _checked("signal", _SCHEMA["signal"], self.signal)
        grid = [math.inf if s in ("inf", "Infinity") else s for s in sig["snr_db_grid"]]
        if not grid:
            raise ValueError("snr_db_grid must be nonempty")
        if not all(_is_real(s) for s in grid):
            raise ValueError(f"snr_db_grid must hold numbers, got {grid!r}")
        sig["snr_db_grid"] = [float(s) for s in grid]
        try:
            for s in sig["snr_db_grid"]:
                estimation._snr_power_ratio(s)
        except ValueError as exc:
            raise ValueError(f"snr_db_grid: {exc}")
        if sig["bandwidth_min"] < 1 or sig["bandwidth_step"] < 1:
            raise ValueError("bandwidth_min and bandwidth_step must be >= 1")
        if sig["bandwidth_min"] > sig["bandwidth_max"]:
            raise ValueError("bandwidth_min exceeds bandwidth_max")
        _budget(self.budget_rule, sig["bandwidth_max"])
        if _budget(self.budget_rule, sig["bandwidth_min"]) < 1:
            raise ValueError(
                f"budget_rule {self.budget_rule} gives a budget below 1 "
                f"at bandwidth_min {sig['bandwidth_min']}"
            )
        object.__setattr__(self, "signal", sig)
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "criterion", design.Criterion(self.criterion).value)


# slots: a run holds one record per method, grid point and trial
@dataclass(slots=True)
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


def config_from_dict(data: dict, **overrides) -> ScenarioConfig:
    """The scenario a config object describes, with `overrides` replacing
    its top-level keys; ValueError unless it is a valid config."""
    if not isinstance(data, dict):
        raise ValueError(f"a config must be a JSON object, got {data!r}")
    data = _checked("config", _SCHEMA["config"], {**data, **overrides})
    for key, value in data["graph"].items():
        if value is None:
            raise ValueError(f"{key} must not be null; leave it out for its default")
    schema = data.pop("schema")
    if schema != 1:
        raise ValueError(f"schema must be 1, got {schema!r}")
    return ScenarioConfig(**data)


def load_config(path, **overrides) -> ScenarioConfig:
    """The scenario a config file describes; see `config_from_dict`."""
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh), **overrides)


def build_graph(cfg: ScenarioConfig) -> graphs.WeightedGraph:
    return make_graph(cfg.graph, [cfg.master_seed, _ROLE_GRAPH])


def trial_inputs(cfg: ScenarioConfig, grid_index: int, bandwidth: int,
                 budget: int, trial: int):
    """Shared per-trial randomness: GFT coefficients and the standard-normal
    noise vector every method observes."""
    sig = cfg.signal
    rng_signal = np.random.default_rng([cfg.master_seed, _ROLE_SIGNAL, grid_index, trial])
    rng_noise = np.random.default_rng([cfg.master_seed, _ROLE_NOISE, grid_index, trial])
    coeffs = sig["coeff_mean"] + sig["coeff_std"] * rng_signal.standard_normal(bandwidth)
    return coeffs, rng_noise.standard_normal(budget)


# numpy's SeedSequence (O'Neill 2015): its pool size, hash constants and
# mixing multipliers
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_LOW32 = 2**32 - 1
# trials per `_uniforms` pass, so seeding holds one chunk's arrays at a time
_SEED_CHUNK = 4096


def _words(n: int) -> list[int]:
    """SeedSequence's uint32 words of an int >= 0, least significant first."""
    out = [n & _LOW32]
    while n := n >> 32:
        out.append(n & _LOW32)
    return out


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix of a uint32 array, with its hash constant,
    from `init`, multiplied by `mult` on each call."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _LOW32
        value = value * const
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays."""
    x = _MIX_L * x - _MIX_R * y
    return x ^ x >> 16


def _seed_words(prefix: list[int], trials) -> np.ndarray:
    """`SeedSequence([*prefix, t]).generate_state(4, np.uint64)` for each t
    in `trials`, ints in [0, 2**32), as rows, from one pass of array
    arithmetic. A prefix entry gives its 32-bit words, a trial index one."""
    t = np.asarray(trials, dtype=np.uint32)
    entropy = [np.full(t.shape, w, np.uint32) for n in prefix for w in _words(n)] + [t]
    hash_a, zero = _hasher(_INIT_A, _MULT_A), np.zeros(t.shape, np.uint32)
    pool = [hash_a(v) for v in (entropy + [zero] * _POOL_WORDS)[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for value in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hash_a(value))
    hash_b = _hasher(_INIT_B, _MULT_B)
    w = np.stack([hash_b(pool[i % _POOL_WORDS]) for i in range(8)], axis=1)
    return w.astype("<u4").view("<u8").astype(np.uint64)  # as SeedSequence does


@dataclass
class _HashedSeed(np.random.bit_generator.ISeedSequence):
    """One row of `_seed_words`, the state `np.random.PCG64` asks for."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _uniforms(prefix: list[int], trials) -> np.ndarray:
    """`np.random.default_rng([*prefix, t]).random()` for each t in `trials`,
    ints in [0, 2**32), bit for bit: NumPy's PCG64 (O'Neill 2014) seeds
    itself from each trial's `_seed_words` (O'Neill 2015) and draws."""
    return np.fromiter((np.random.Generator(np.random.PCG64(_HashedSeed(s))).random()
                        for s in _seed_words(prefix, trials)), float)


def _trial_draws(law, key: list[int], trials: int):
    """The interval of `law` holding `_uniforms(key, [t])`, as an int, for each
    t in range(trials), `_SEED_CHUNK` at a time; a law of one interval draws none."""
    if len(law.cuts) == 1:
        return itertools.repeat(0, trials)
    return (i for start in range(0, trials, _SEED_CHUNK) for i in law.interval(
        _uniforms(key, np.arange(start, min(start + _SEED_CHUNK, trials)))).tolist())


def run_scenario(cfg: ScenarioConfig, measure_time: bool = True) -> list[TrialRecord]:
    """Run the full Monte Carlo protocol and return one record per grid
    point, trial and method, in that nesting order. Module errors become
    failed records. Each bandwidth's design and baselines are solved right
    before its trials, so a solve that raises ends the run after the
    earlier bandwidths' trials. Each bandwidth's rounding law is computed
    once, and each proposed trial's draw is the law's interval holding its
    uniform, a chunk of trials' uniforms drawn in one pass before the first
    of them, and none for a law of one interval; trials whose draws are
    equal share one allocation, so a record times neither its draw nor, when
    it reuses one, an allocation in `wall_ms`."""
    basis = spectral.eigendecompose(graphs.laplacian(build_graph(cfg)))
    criterion = design.Criterion(cfg.criterion)
    sig = cfg.signal
    records = []
    gi = 0
    for k in range(sig["bandwidth_min"], sig["bandwidth_max"] + 1, sig["bandwidth_step"]):
        budget = _budget(cfg.budget_rule, k)
        rows = spectral.design_rows(basis, k)
        weights = design.solve_relaxed(rows, criterion)
        gap = design.duality_gap(rows, weights, criterion)
        seqs = {}
        if "m1" in cfg.methods:
            seqs["m1"] = baselines.greedy_sigma_min(rows, budget)
        if "m3" in cfg.methods:
            seqs["m3"] = baselines.top_m_selection(weights, budget)
        law = design._draws(weights, budget) if "proposed" in cfg.methods else None
        # the proposed allocation of each interval of the law drawn; a draw
        # that fails is not kept
        @functools.cache
        def allocation(i):
            return design.allocate_from_weights(rows, weights, budget, law.quotas(i))[0]

        for snr in sig["snr_db_grid"]:
            draws = itertools.repeat(None) if law is None else _trial_draws(law, [
                cfg.master_seed, _ROLE_METHOD, KNOWN_METHODS.index("proposed"), gi], cfg.trials)
            for trial, draw in zip(range(cfg.trials), draws):
                coeffs, z = trial_inputs(cfg, gi, k, budget, trial)
                f = spectral.synthesize_bandlimited(basis, coeffs)
                # one noise level per trial; every sequence has `budget` entries
                noise = estimation.noise_std_for_snr(f, snr) * z
                for method in cfg.methods:
                    t0 = time.perf_counter() if measure_time else 0.0
                    try:
                        seq = allocation(draw) if method == "proposed" else seqs[method]
                        y = f[seq.indices] + noise
                        est = estimation.blue_estimate(basis, k, seq, y, f_true=f)
                        err, status = est.error_l2, "ok"
                    except GSampleError as exc:
                        err, status = math.nan, f"failed:{type(exc).__name__}"
                    wall = (time.perf_counter() - t0) * 1000.0 if measure_time else 0.0
                    records.append(TrialRecord(
                        scenario=cfg.scenario, method=method, criterion=cfg.criterion,
                        bandwidth=k, budget=budget, snr_db=snr, trial=trial, error_l2=err,
                        solver_gap=None if method == "m1" else gap, wall_ms=wall,
                        status=status,
                    ))
            gi += 1
    return records


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
        groups.setdefault((rec.scenario, rec.method, rec.bandwidth, rec.snr_db), []).append(rec)
    out = []
    for (scenario, method, k, snr), recs in groups.items():
        arr = np.asarray([r.error_l2 for r in recs if r.status == "ok"], dtype=float)
        out.append(SummaryRow(
            scenario=scenario, method=method, bandwidth=k, snr_db=snr,
            mean_error=float(arr.mean()) if len(arr) else math.nan,
            std_error=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
            count=len(arr), failures=len(recs) - len(arr),
        ))
    return out


def _write_csv(path, header: list[str], row_type, rows) -> None:
    """Schema-1 CSV: a `header` line, then each row's `row_type` fields in
    declaration order, one header name per field. csv writes a float as its
    repr (`inf`, `nan` included) and None as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# schema: 1\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(attrgetter(*(f.name for f in fields(row_type))), rows))


def write_records_csv(records: list[TrialRecord], path) -> None:
    _write_csv(path, CSV_COLUMNS, TrialRecord, records)


def write_summary_csv(rows: list[SummaryRow], path) -> None:
    _write_csv(path, SUMMARY_COLUMNS, SummaryRow, rows)


# graph family -> (graph keys beyond its kind's defaults, node count at
# desk and full size)
_PRESET_GRAPHS = {
    "g1": ({"kind": "watts_strogatz"}, {"desk": 200, "full": 1000}),
    "g2": ({"kind": "random_geometric", "kernel_width": 0.3}, {"desk": 200, "full": 500}),
}
_PRESET_SIGNALS = {
    "f1": {"bandwidth_min": 10, "bandwidth_max": 20, "snr_db_grid": [10.0]},
    "f2": {"bandwidth_min": 15, "bandwidth_max": 15,
           "snr_db_grid": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]},
}
# every preset owns its nested dicts and lists
PRESETS: dict[str, dict] = {
    name: {"scenario": name,
           "graph": {**_defaults(_SCHEMA["graph"][graph["kind"]]), **graph, "n": sizes[size]},
           "signal": copy.deepcopy(signal)}
    for size in ("desk", "full")
    for g, (graph, sizes) in _PRESET_GRAPHS.items()
    for f, signal in _PRESET_SIGNALS.items()
    for name in [f"{g}-{f}-{size}"]
}


def preset_config(name: str, **overrides) -> ScenarioConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return config_from_dict(json.loads(json.dumps(PRESETS[name])), **overrides)
