#!/usr/bin/env bash
# Records, summaries, graphs, designs and estimates are the same bytes in a
# fresh process. The in-process identity checks of tier-1 and perfbench cannot
# see state that differs between interpreters, such as string hashing, so each
# compared command runs under two hash seeds. The script also runs BLUE on each
# design outside pytest and checks that the command line refuses bad input
# cleanly. It works in a temporary directory and writes nothing into the
# checkout. Run it from any directory:
#
#   PYTHONWARNINGS=error bash tests/reproducibility.sh
#
# Under PYTHONWARNINGS=error a NumPy RuntimeWarning from a solve, rounding or
# BLUE fails the script, as pytest's filterwarnings = error fails tier-1.
set -eo pipefail
src=$(cd "$(dirname "$0")/../src" && pwd)
export PYTHONPATH=$src${PYTHONPATH:+:$PYTHONPATH}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

gsample() { python -m gsample.cli "$@"; }

# twice NAME EXT ARGS...: `gsample ARGS --out NAME-SEED.EXT` under
# PYTHONHASHSEED 0 and 12345, whose two outputs must be the same bytes; a
# bench run also writes NAME-SEED.summary.csv, and its two summaries must be too
twice() {
  local name=$1 ext=$2 seed out
  shift 2
  for seed in 0 12345; do
    out=(--out "$name-$seed.$ext")
    [ "$1" != bench ] || out+=(--summary "$name-$seed.summary.csv")
    PYTHONHASHSEED=$seed gsample "$@" "${out[@]}"
  done
  cmp "$name-0.$ext" "$name-12345.$ext"
  [ "$1" != bench ] || cmp "$name-0.summary.csv" "$name-12345.summary.csv"
}

# g1-f1-desk draws a Watts-Strogatz graph and g2-f1-desk a geometric one. On
# g2, criterion D puts K = 15 on the rounding grid: no uniform is drawn and
# every trial of that bandwidth shares one allocation. E is uniform and off the
# grid, so every trial makes one uniform draw: the benchmark hashes a grid
# point's trial seeds in array passes of 4,096 trials, and NumPy's PCG64 seeds
# itself from each trial's hashed words and draws its uniform.
for preset in g1-f1-desk g2-f1-desk; do
  for crit in a d e; do
    twice $preset-$crit csv bench --preset $preset --criterion $crit --trials 20 --no-timing
  done
done
# master seed 2**32, off the grid too, takes the draw through a two-word seed
twice two-word csv bench --preset g2-f1-desk --criterion a --seed 4294967296 --trials 20 --no-timing
# 4,100 proposed trials cross a pass boundary at every grid point
twice chunked csv bench --preset g2-f1-desk --criterion a --methods proposed --trials 4100 \
  --no-timing
# a proposed trial's draw is keyed by the method, not by where --methods lists
# it: the proposed records of a run that lists m3 first are the same bytes
gsample bench --preset g2-f1-desk --criterion a --methods m3,proposed --trials 20 --no-timing \
  --out m3-first.csv
grep ',proposed,' g2-f1-desk-a-0.csv > proposed-listed-first.csv
grep ',proposed,' m3-first.csv > proposed-listed-last.csv
cmp proposed-listed-first.csv proposed-listed-last.csv

twice ws edges generate-graph --kind watts_strogatz --n 200
twice g edges generate-graph --kind random_geometric --n 200 --radius 0.6 --kernel-width 0.3
# the design step reads its graph from an edge-list file, the bulk-parsed path
# the presets do not take
mv g-0.edges g.edges
# besides criteria A, D and E at budget 60, where every draw is invertible, A
# runs at budgets 17 and 20, where no draw and about 3% of draws are
for run in a-60 d-60 e-60 a-17 a-20; do
  twice design-$run json design --graph g.edges --bandwidth 15 --budget ${run#*-} \
    --criterion ${run%-*}
done
python -c "print(*[1.0] * 200)" > signal.txt
for crit in a d e; do
  twice estimate-$crit json estimate --graph g.edges --design design-$crit-60-0.json \
    --signal signal.txt --snr-db 5 --seed 1
done

# refused ARGS...: `gsample ARGS` must end with exit code 1, exactly one
# `error:` line on stderr and nothing on stdout, with no warning
refused() {
  local code=0
  # not through gsample(), whose own line `bash -x` would trace into err-refused.txt
  python -m gsample.cli "$@" > out-refused.txt 2> err-refused.txt || code=$?
  cat err-refused.txt
  test "$code" = 1
  test "$(wc -l < err-refused.txt)" = 1
  grep -q '^error: ' err-refused.txt
  test ! -s out-refused.txt
}
# a signal with a NaN, one with 199 values for 200 nodes, one whose estimate is
# beyond the double range, and one laid out as a table, refused by its shape
python -c "print(*[1.0] * 199, 'nan')" > signal-nan.txt
python -c "print(*[1.0] * 199)" > signal-short.txt
python -c "print(*['1.7e308'] * 200)" > signal-huge.txt
python -c "print(*[1.0] * 100); print(*[1.0] * 100)" > signal-table.txt
for bad in nan short huge table; do
  refused estimate --graph g.edges --design design-a-60-0.json --signal signal-$bad.txt
done
grep -q '2 x 100 table' err-refused.txt
# a design whose integer budget is beyond the double range
python -c 'import json, pathlib; d = json.loads(pathlib.Path("design-a-60-0.json").read_text()); d["budget"] = 10**400; pathlib.Path("huge-budget.json").write_text(json.dumps(d))'
refused estimate --graph g.edges --design huge-budget.json --signal signal.txt
# a negative seed or more than 2**32 trials is refused before any solve, a
# budget of 0 before any line
refused bench --preset g2-f1-desk --seed -1 --trials 1 --out records-refused.csv
refused bound --sigma-min 0.1 --n 10 --eta 0.9 --budget 0
refused bench --preset g2-f1-desk --trials 4294967297 --out records-refused.csv
# a bad seed is refused on the rounding grid too: a D design at K = 15, M = 60
# draws no uniform yet must refuse --seed -1 as an A design does
refused design --graph g.edges --bandwidth 15 --budget 60 --criterion d --seed -1
# a kernel width that zeroes a weight within the radius is refused by name
refused generate-graph --kind random_geometric --n 200 --radius 0.6 \
  --kernel-width 0.01 --out g-refused.edges
grep -q kernel_width err-refused.txt

# each Gram is factored over the nodes a design samples, never over its 10**9
# samples, so an A design at a budget of 10**9 fits in a 4 GB address space
( ulimit -v 4000000; gsample design --graph g.edges \
  --bandwidth 15 --budget 1000000000 --out design-a-1e9-0.json )
python -c '
import glob, json, math
def refuse(token):
    raise ValueError(f"{path}: {token} is not JSON")
for path in sorted(glob.glob("design-*.json") + glob.glob("estimate-*.json")):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh, parse_constant=refuse)  # no NaN or Infinity token
    if path.startswith("design-"):
        # the quotas sum to the budget and, where no fallback shift moved a
        # unit, lie within 1 of p_i * budget
        m, p, budget = payload["m"], payload["p"], payload["budget"]
        assert sum(m) == budget, f"{path}: quotas sum to {sum(m)}, not {budget}"
        if payload["fallback_moves"] == 0:
            assert all(abs(mi - pi * budget) < 1 for mi, pi in zip(m, p)), path
        gap, objective = payload["duality_gap"], payload["relaxed_objective"]
        assert gap <= 1e-6 * max(1.0, abs(objective)), f"{path}: duality gap {gap}"
        assert payload["certified_budget"] == math.ceil(1 / payload["sigma_min"]), path
        # invertible_probability is 1 only with no fallback move, 0 only with
        # one, and 1 at any budget from certified_budget on (Weyl)
        prob, moves = payload["invertible_probability"], payload["fallback_moves"]
        assert 0.0 <= prob <= 1.0, f"{path}: invertible probability {prob}"
        assert prob < 1.0 or moves == 0, f"{path}: {moves} moves at probability 1"
        assert prob > 0.0 or moves >= 1, f"{path}: no move at probability 0"
        if budget >= payload["certified_budget"]:
            assert prob == 1.0, f"{path}: probability {prob} at a certified budget"
        if path == "design-a-1e9-0.json":
            assert budget == 10**9 and moves == 0 and prob == 1.0, path
'
