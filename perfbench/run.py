"""gsample benchmark: runs a workload through `gsample bench --config ...
--out ... --summary ...` in-process and prints its metrics, the last line as
one JSON object.

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

`--trace 0` repeats untraced runs for about `--seconds` and prints the
end-to-end metrics (medians over the repeats, times scaled to a reference
host speed by interleaved host probes). `--trace 1` makes one untraced
and one traced run and prints the per-layer metrics and the tracing overhead.
`--workload all` runs every workload, each mode in its own process, or only
the mode `--trace` names. Exit status: 0 when every check passes, 1 when a
correctness check fails, 2 when the checkout holds no gsample sources.
"""

import os

# One thread everywhere: BLAS is pinned before NumPy loads it, and gsample's
# trial thread pool stays off, so per-layer times are busy time.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("GSAMPLE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import LINALG, Tracer  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
MIN_REPS = 3  # scenario runs per untraced measurement, even past --seconds
SETUP_BATCH_REPS, SETUP_BATCH_SECONDS = 15, 0.5  # setup repeats before each scenario run
PROBE_CALLS = 60_000
PROBE_REF_S = 1.0  # bounded times are scaled to the host speed at which the probe takes this
BLUE_SPOT_CHECKS = 30
CHILD_TIMEOUT_S = 180


class CheckFailed(Exception):
    pass


def metric(value, unit):
    return {"value": value, "unit": unit}


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')}, "
            f"nproc {len(os.sched_getaffinity(0))}, {threads}, GSAMPLE_THREADS unset")


def host_probe(calls=PROBE_CALLS) -> float:
    """Seconds for a fixed loop of eigvalsh calls on one 15x15 matrix: a
    reading of host speed, the same kind of work as the relaxed solve."""
    x = np.random.default_rng(0).standard_normal((15, 15))
    a = x @ x.T
    t0 = time.perf_counter()
    for _ in range(calls):
        np.linalg.eigvalsh(a)
    return time.perf_counter() - t0


def warm_up():
    """The first LAPACK eigensolver call in a process pays a one-off cost of
    a few hundred milliseconds, and the first probe loop reads slow; pay
    both before any timing."""
    x = np.random.default_rng(0).standard_normal((200, 200))
    np.linalg.eigh(x + x.T)
    host_probe(PROBE_CALLS // 3)


def timed_cli(gs, config_path, workdir):
    """Wall seconds of one in-process `gsample bench` call."""
    argv = ["bench", "--config", str(config_path),
            "--out", str(workdir / "records.csv"),
            "--summary", str(workdir / "summary.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = gs.cli.main(argv)
        elapsed = time.perf_counter() - t0
    if code != 0:
        raise CheckFailed(f"gsample bench exited with status {code}")
    return elapsed


def record_ms(stats):
    """p50 and p99 of the records CSV `wall_ms` column."""
    p50, p99 = np.percentile(np.frombuffer(stats.wall_ms), [50, 99])
    return float(p50), float(p99)


def read_outputs(workload, workdir):
    stats = checks.read_records(workdir / "records.csv", workload)
    stats.problems += checks.check_summary(workdir / "summary.csv", stats)
    return stats


def time_setup(gs, cfg):
    """Seconds to load the workload's graph, build its Laplacian and
    eigendecompose it, as `run_scenario` does first; one value per repeat,
    at least one repeat and at most SETUP_BATCH_SECONDS of them."""
    times = []
    start = time.perf_counter()
    while not times or (len(times) < SETUP_BATCH_REPS
                        and time.perf_counter() - start < SETUP_BATCH_SECONDS):
        t0 = time.perf_counter()
        gs.spectral.eigendecompose(gs.graphs.laplacian(gs.bench.build_graph(cfg)))
        times.append(time.perf_counter() - t0)
    return times


def measure_untraced(gs, workload, config_path, workdir, seconds):
    """Host speed drifts by up to 1.8x over minutes, so the two times are
    scaled by PROBE_REF_S over the mean of host probes taken before the first
    scenario run and after each one."""
    deadline = time.perf_counter() + seconds
    cfg = gs.bench.load_config(config_path)
    probes = [host_probe()]
    setup, runs, stats = [], [], []
    while len(runs) < MIN_REPS or time.perf_counter() + statistics.median(runs) <= deadline:
        setup += time_setup(gs, cfg)
        runs.append(timed_cli(gs, config_path, workdir))
        probes.append(host_probe())
        stats.append(read_outputs(workload, workdir))
    scale = PROBE_REF_S / statistics.fmean(probes)
    first = stats[0]
    problems = [p for s in stats for p in s.problems]
    if any(s.digest != first.digest for s in stats):
        problems.append("repeated runs with one seed wrote different records")
    metrics = {
        "scenario_s": metric(statistics.median(runs) * scale, "s"),
        "setup_s": metric(statistics.median(setup) * scale, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": metric(first.ok_frac, "ratio"),
    }
    for method in checks.METHODS:
        metrics[f"error_l2.{method}"] = metric(first.mean_error(method), "signal")
    print(f"host probes ({PROBE_CALLS} eigvalsh 15x15, s): {' '.join(f'{r:.4f}' for r in probes)}")
    print(f"scenario runs, wall s: {' '.join(f'{r:.4f}' for r in runs)}; "
          f"scaled to reference host speed by {scale:.4f}")
    # per-layer metrics (too noisy to bound here), printed as context
    p50s, p99s = zip(*map(record_ms, stats))
    print(f"record_ms p50 per run: {' '.join(f'{r:.4f}' for r in p50s)}; "
          f"p99 per run: {' '.join(f'{r:.4f}' for r in p99s)}")
    print(f"setup runs, wall s: {' '.join(f'{r:.4f}' for r in setup)}")
    print(f"records per run: {first.attempted} (p99 has {first.attempted // 100} beyond it), "
          f"failed {first.failed}, failed_frac {first.failed / first.attempted}")
    return metrics, sum(s.attempted for s in stats), sum(s.failed for s in stats), problems


def _call_args(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def measure_traced(gs, workload, config_path, workdir):
    probe_before = host_probe()
    untraced_s = timed_cli(gs, config_path, workdir)
    base = read_outputs(workload, workdir)
    solves, blue, laplacians, fallback_moves = [], [], [], []
    solve_fn, blue_fn = gs.design.solve_relaxed, gs.estimation.blue_estimate

    def on_solve(args, kwargs, result, elapsed):
        solves.append((_call_args(solve_fn, args, kwargs), result, elapsed))

    def on_blue(args, kwargs, result, elapsed):
        if len(blue) < BLUE_SPOT_CHECKS:
            blue.append((_call_args(blue_fn, args, kwargs), result))

    hooks = {
        "design.solve_relaxed": on_solve,
        "design.allocate_from_weights": lambda args, kwargs, result, elapsed:
            fallback_moves.append(result[1]),
        "estimation.blue_estimate": on_blue,
        "graphs.laplacian": lambda args, kwargs, result, elapsed: laplacians.append(result),
    }
    with Tracer(gs, hooks) as tracer:
        traced_s = timed_cli(gs, config_path, workdir)
    traced = read_outputs(workload, workdir)

    problems = base.problems + traced.problems
    if traced.digest != base.digest:
        problems.append("traced and untraced runs wrote different records")
    designs = []
    for call, weights, elapsed in solves:
        crit = call["criterion"].value
        d = checks.check_design(call["rows"], crit, weights.p)
        designs.append(d)
        problems += d.problems
        print(f"relaxed solve K={d.bandwidth} criterion={crit}: {elapsed:.4f} s, "
              f"objective {d.objective!r}, gap_rel {d.gap_rel:.3e}, support {d.support}")
    for call, result in blue:
        problems += checks.check_blue(
            call["basis"].eigenvectors, call["bandwidth"], call["seq"].indices,
            call["y"], call["f_true"], result.coeff_estimate, result.error_l2)

    p50, p99 = record_ms(base)
    total, calls = tracer.total, tracer.calls
    n_solve = calls("design.solve_relaxed")
    n_alloc = calls("design.allocate_from_weights")
    n_greedy = calls("baselines.greedy_sigma_min")
    n_blue = calls("estimation.blue_estimate")
    metrics = {
        "record_ms.p50": metric(p50, "ms"),
        "record_ms.p99": metric(p99, "ms"),
        "graphs.build_s": metric(total("graphs.load_edge_list", "graphs.random_geometric",
                                       "graphs.watts_strogatz"), "s"),
        "graphs.laplacian_s": metric(total("graphs.laplacian"), "s"),
        "graphs.edges": metric(sum(int(np.count_nonzero(np.triu(lap, 1))) for lap in laplacians),
                               "count"),
        "spectral.eigendecompose_s": metric(total("spectral.eigendecompose"), "s"),
        "spectral.synthesize_s": metric(total("spectral.synthesize_bandlimited"), "s"),
        "design.solve_relaxed_s": metric(total("design.solve_relaxed"), "s"),
        "design.solve_relaxed_calls": metric(n_solve, "count"),
        "design.solve_relaxed_per_call_s": metric(total("design.solve_relaxed") / max(n_solve, 1), "s"),
        "design.duality_gap_s": metric(total("design.duality_gap"), "s"),
        "design.allocate_s": metric(total("design.allocate_from_weights"), "s"),
        "design.allocate_calls": metric(n_alloc, "count"),
        "design.allocate_per_call_ms": metric(
            1000 * total("design.allocate_from_weights") / max(n_alloc, 1), "ms"),
        "design.fallback_moves": metric(sum(fallback_moves), "count"),
        "design.relaxed_objective": metric(statistics.fmean(d.objective for d in designs), "objective"),
        "design.relaxed_gap_rel": metric(max(d.gap_rel for d in designs), "ratio"),
        "design.support_size": metric(statistics.fmean(d.support for d in designs), "nodes"),
        "baselines.greedy_s": metric(total("baselines.greedy_sigma_min"), "s"),
        "baselines.greedy_per_call_s": metric(total("baselines.greedy_sigma_min") / max(n_greedy, 1), "s"),
        "baselines.top_m_s": metric(total("baselines.top_m_selection"), "s"),
        "estimation.sample_s": metric(total("estimation.sample_with_noise"), "s"),
        "estimation.blue_s": metric(total("estimation.blue_estimate"), "s"),
        "estimation.blue_calls": metric(n_blue, "count"),
        "estimation.blue_per_call_ms": metric(1000 * total("estimation.blue_estimate") / max(n_blue, 1), "ms"),
        "estimation.sequence_s": metric(total("estimation.sequence_from_allocation"), "s"),
        "estimation.rank_failures": metric(
            tracer.errors[("estimation.blue_estimate", "RankDeficientSampling")], "count"),
        "bench.trial_inputs_s": metric(total("bench.trial_inputs"), "s"),
        "bench.self_s": metric(tracer.spans["bench.run_scenario"].self_s, "s"),
        "bench.write_s": metric(total("bench.summarize", "bench.write_records_csv",
                                      "bench.write_summary_csv"), "s"),
        "cli.self_s": metric(tracer.layer_self("cli"), "s"),
        **{f"linalg.{name}_calls": metric(tracer.linalg_calls[name], "count") for name in LINALG},
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
        "failed_frac": metric(traced.failed / traced.attempted, "ratio"),
    }
    print(f"host probe ({PROBE_CALLS} eigvalsh 15x15, s): "
          f"before {probe_before:.4f}, after {host_probe():.4f}")
    print(f"scenario wall s untraced {untraced_s:.4f}, traced {traced_s:.4f}, "
          f"tracing overhead {traced_s - untraced_s:.4f} s")
    print(f"{'span':42} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, s in sorted(tracer.spans.items(), key=lambda kv: -kv[1].total_s):
        if s.calls:
            print(f"{name:42} {s.calls:9d} {s.total_s:10.4f} {s.self_s:10.4f}")
    attempted = base.attempted + traced.attempted
    return metrics, attempted, base.failed + traced.failed, problems


def run_workload(gs, workload, seed, seconds, trace):
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        config_path, edges = write_inputs(workload, seed, workdir)
        print(f"environment: {environment()}")
        print(f"workload {workload.name}, seed {seed}, {'traced' if trace else 'untraced'}, "
              f"graph n={workload.graph.n} edges={edges}, "
              f"{workload.expected_records} records per scenario run")
        warm_up()
        if trace:
            measured = measure_traced(gs, workload, config_path, workdir)
        else:
            measured = measure_untraced(gs, workload, config_path, workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # fails while another run still uses it
    return measured


def report(metrics, attempted, failed, problems):
    for name, m in metrics.items():
        print(f"{name:34} {m['value']!r:>24} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's."""
    modes = [0, 1] if args.trace is None else [args.trace]
    metrics, attempted, failed, problems = {}, 0, 0, []
    for name in WORKLOADS:
        for trace in modes:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{name} --trace {trace} exited {proc.returncode} without a result")
                continue
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                problems.append(f"{name} --trace {trace} failed its checks")
    return report(metrics, max(attempted, 1), failed, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if not (SRC / "gsample" / "__init__.py").is_file():
        print(f"error: no gsample sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    gs = importlib.import_module("gsample")
    importlib.import_module("gsample.cli")  # loads bench and every layer below it
    workload = WORKLOADS[args.workload]
    try:
        measured = run_workload(gs, workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        return report({}, workload.expected_records, workload.expected_records, [str(exc)])
    return report(*measured)


if __name__ == "__main__":
    sys.exit(main())
