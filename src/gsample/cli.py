"""Command-line entry points: graph generation, design, estimation, the
Monte Carlo benchmark, and the sample-size bound."""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bench, design, estimation, graphs, spectral
from .exceptions import GSampleError


def _cmd_generate_graph(args):
    if args.kind == "watts_strogatz":
        g = graphs.watts_strogatz(args.n, args.k, args.beta, args.seed)
    else:
        kernel = args.kernel_width if args.kernel_width else args.radius / 2.0
        g = graphs.random_geometric(args.n, args.radius, kernel, args.seed)
    graphs.save_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n}, edges={len(g.edges)}")


def _load_basis(path):
    g = graphs.load_edge_list(path)
    return g, spectral.eigendecompose(graphs.laplacian(g))


def _cmd_design(args):
    _, basis = _load_basis(args.graph)
    criterion = design.Criterion.parse(args.criterion)
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
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_estimate(args):
    _, basis = _load_basis(args.graph)
    with open(args.design, encoding="utf-8") as fh:
        dpayload = json.load(fh)
    alloc = design.SampleAllocation(m=dpayload["m"], budget=int(dpayload["budget"]))
    seq = estimation.sequence_from_allocation(alloc)
    f = np.loadtxt(args.signal, ndmin=1)
    snr = math.inf if args.snr_db is None else args.snr_db
    samples = estimation.sample_with_noise(f, seq, snr, seed=args.seed)
    est = estimation.blue_estimate(
        basis, int(dpayload["bandwidth"]), seq, samples.y, f_true=f
    )
    payload = {
        "schema": 1,
        "coeff_estimate": est.coeff_estimate.tolist(),
        "signal_estimate": est.signal_estimate.tolist(),
        "error_l2": est.error_l2,
        "noise_std": samples.noise_std,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_bench(args):
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.criterion is not None:
        overrides["criterion"] = args.criterion
    if args.methods is not None:
        overrides["methods"] = args.methods.split(",")
    if args.preset:
        cfg = bench.preset_config(args.preset, **overrides)
    else:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        data.update(overrides)
        cfg = bench.config_from_dict(data)
    records = bench.run_scenario(cfg, measure_time=not args.no_timing)
    bench.write_records_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    if args.summary:
        bench.write_summary_csv(bench.summarize(records), args.summary)
        print(f"wrote summary to {args.summary}")


def _cmd_bound(args):
    m_star = design.min_sample_size(args.sigma_min, args.n, args.eta)
    print(f"M = {m_star}")
    budget = args.budget if args.budget is not None else m_star
    prob = design.invertibility_probability_bound(args.sigma_min, budget, args.n)
    print(f"invertibility bound at M={budget}: {prob:.6f}")


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
    p.add_argument("--k", type=int, default=5, help="ring half-degree (watts_strogatz)")
    p.add_argument("--beta", type=float, default=0.1, help="rewiring probability")
    p.add_argument("--radius", type=float, default=0.6)
    p.add_argument("--kernel-width", type=float, default=None)
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
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--criterion", default=None)
    p.add_argument("--methods", default=None, help="comma-separated subset")
    p.add_argument("--no-timing", action="store_true",
                   help="zero the wall_ms column for byte-reproducible output")
    p.add_argument("--out", default="records.csv")
    p.add_argument("--summary", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("bound", help="minimum sample size for invertibility")
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="evaluate the probability bound at this budget")
    p.set_defaults(func=_cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (GSampleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
