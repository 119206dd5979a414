"""Command-line entry points: graph generation, design, estimation, the
Monte Carlo benchmark, and the sample-size bound."""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import bench, design, estimation, graphs, spectral
from .exceptions import GSampleError


def _cmd_generate_graph(args):
    flags = {key: getattr(args, key) for key in ("n", "k", "beta", "radius", "kernel_width")}
    graph = {"kind": args.kind, **{key: v for key, v in flags.items() if v is not None}}
    g = bench.make_graph(bench.check_graph(graph), args.seed)
    graphs.save_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n}, edges={len(g.w)}")


def _load_basis(path):
    return spectral.eigendecompose(graphs.laplacian(graphs.load_edge_list(path)))


def _write_json(payload, out):
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_design(path):
    """The sample allocation and bandwidth of a design JSON, types checked."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not (isinstance(payload, dict) and payload.keys() >= {"m", "budget", "bandwidth"}):
        raise ValueError(f"design {path} is not an object with keys m, budget, bandwidth")
    if not (isinstance(payload["m"], list)
            and all(type(x) in (int, float) for x in payload["m"])):
        raise ValueError(f"design {path}: m must be a list of numbers")
    for key in ("budget", "bandwidth"):
        value = payload[key]
        if not (type(value) in (int, float) and float(value).is_integer()):
            raise ValueError(f"design {path}: {key} must be an integer, got {value!r}")
    alloc = design.SampleAllocation(m=payload["m"], budget=int(payload["budget"]))
    return alloc, int(payload["bandwidth"])


def _cmd_design(args):
    basis = _load_basis(args.graph)
    criterion = design.Criterion(args.criterion)
    result = design.design_pipeline(
        basis, args.bandwidth, args.budget, criterion, seed=args.seed
    )
    payload = {
        "schema": 1,
        "criterion": criterion.value,
        "bandwidth": args.bandwidth,
        "budget": args.budget,
        "p": result.weights.p.tolist(),
        "m": result.allocation.m.tolist(),
        **result.diagnostics,
    }
    _write_json(payload, args.out)


def _cmd_estimate(args):
    basis = _load_basis(args.graph)
    alloc, bandwidth = _read_design(args.design)
    if len(alloc.m) != basis.n:
        raise ValueError(
            f"design {args.design} has quotas for {len(alloc.m)} nodes "
            f"but graph {args.graph} has {basis.n}"
        )
    with warnings.catch_warnings():  # an empty file fails the length check below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        f = np.loadtxt(args.signal, ndmin=1)
    if not np.isfinite(f).all():
        raise ValueError("signal values must be finite")
    if f.shape != alloc.m.shape:
        raise ValueError(f"signal has {f.size} values but the allocation {len(alloc.m)} quotas")
    sigma = estimation.noise_std_for_snr(f, math.inf if args.snr_db is None else args.snr_db)
    y = f[alloc.indices] + sigma * np.random.default_rng(args.seed).standard_normal(alloc.budget)
    est = estimation.blue_estimate(basis, bandwidth, alloc, y, f_true=f)
    payload = {
        "schema": 1,
        "coeff_estimate": est.coeff_estimate.tolist(),
        "signal_estimate": est.signal_estimate.tolist(),
        "error_l2": est.error_l2,
        "noise_std": sigma,
    }
    _write_json(payload, args.out)


def _cmd_bench(args):
    keys = ("master_seed", "trials", "criterion", "methods")
    overrides = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    if args.preset:
        cfg = bench.preset_config(args.preset, **overrides)
    else:
        cfg = bench.load_config(args.config, **overrides)
    records = bench.run_scenario(cfg, measure_time=not args.no_timing)
    bench.write_records_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    if args.summary:
        bench.write_summary_csv(bench.summarize(records), args.summary)
        print(f"wrote summary to {args.summary}")


def _cmd_bound(args):
    m_star = design.paper_min_sample_size(args.sigma_min, args.n, args.eta)
    budget = args.budget if args.budget is not None else m_star
    prob = design.paper_invertibility_estimate(args.sigma_min, budget, args.n)  # before any output
    print(f"M = {m_star} (the paper's estimate for eta, not a guarantee)")
    print(f"certified invertible (every quota within 1 of p_i*M) at M >= "
          f"{math.ceil(1 / args.sigma_min)}")
    print(f"the paper's invertibility estimate at M={budget}: {prob:.6f} (not a guarantee)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsample",
        description="Sampling-set design for bandlimited graph signal estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-graph", help="generate and save a random graph")
    p.add_argument("--kind", choices=["watts_strogatz", "random_geometric"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    # each graph flag belongs to one kind; left out, it takes the scenario default
    p.add_argument("--k", type=int, help="ring half-degree (watts_strogatz)")
    p.add_argument("--beta", type=float, help="rewiring probability (watts_strogatz)")
    p.add_argument("--radius", type=float, help="connection radius (random_geometric)")
    p.add_argument("--kernel-width", type=float, help="Gaussian kernel width (random_geometric)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate_graph)

    p = sub.add_parser("design", help="solve the design problem on a saved graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--bandwidth", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--criterion", default="a", help="a, d or e")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("estimate", help="sample a signal and reconstruct it")
    p.add_argument("--graph", required=True)
    p.add_argument("--design", required=True, help="JSON from the design subcommand")
    p.add_argument("--signal", required=True, help="whitespace-separated node values")
    p.add_argument("--snr-db", type=float, default=None, help="omit for noiseless")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bench", help="run a Monte Carlo benchmark scenario")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="scenario JSON")
    group.add_argument("--preset", choices=sorted(bench.PRESETS))
    p.add_argument("--seed", type=int, dest="master_seed", help="override master_seed")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--criterion", default=None)
    p.add_argument("--methods", type=lambda s: s.split(","), help="comma-separated subset")
    p.add_argument("--no-timing", action="store_true",
                   help="zero the wall_ms column for byte-reproducible output")
    p.add_argument("--out", default="records.csv")
    p.add_argument("--summary", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("bound", help="the paper's sample-size estimate and the certified budget")
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="evaluate the paper's probability estimate at this budget")
    p.set_defaults(func=_cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (GSampleError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
