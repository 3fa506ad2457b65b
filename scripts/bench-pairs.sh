#!/usr/bin/env bash
# Paired benchmark runs of a base commit against this checkout: the
# choosing-metrics protocol for a change that claims a gain, as one
# command. It only reads bench/; it changes nothing there.
#
#   scripts/bench-pairs.sh <base-ref> [workload ...]     (default: relay-fanout)
#
# The base is exported (git archive) into a temporary directory, so both
# sides build from source with the benchmark code each commit carries.
# Ten pairs on seeds 1..10, alternating which side runs first, then one
# pair on the held-out seed 20190707. Prints every run's end-to-end
# metrics, the pair wins per metric, and bench's own -compare verdicts
# (medians, quartiles, move against the bound). Results stay in
# $OUT (default: a fresh directory under ${TMPDIR:-/tmp}).
#
# TRACE=1 adds one traced base/head pair per workload (seed 1, after that
# workload's untraced pairs) and prints, side by side, the per-layer rows
# a change to the journal, the fan-out path, the bulk readers (replay,
# catch-up sync, batch verification) or the node's own metrics is
# expected to move: where an end-to-end difference came from, not whether
# there is one.
set -euo pipefail

base_ref=${1:?usage: scripts/bench-pairs.sh <base-ref> [workload ...]}
shift
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(relay-fanout)
pairs=${PAIRS:-10}
heldout=20190707

head=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")}
base=$(mktemp -d "${TMPDIR:-/tmp}/bench-base.XXXXXX")
trap 'rm -rf "$base"' EXIT
git -C "$head" archive "$base_ref" | tar -x -C "$base"
echo "base $base_ref -> $base; results -> $out"

# run <side> <checkout> <set> <i> <seed> <workload>: one run, traced when
# <set> is "traced"; the envelope lands in $out/<set>/<side>/run-<i>/.
run() {
	local side=$1 dir=$2 set=$3 i=$4 seed=$5 wl=$6
	local dest="$out/$set/$side/run-$i" trace=0
	[ "$set" = traced ] && trace=1
	mkdir -p "$dest"
	(cd "$dir" && bash bench/run.sh --workload "$wl" --seed "$seed" --trace "$trace" -out "$dest") |
		tail -n 1 >"$dest/$wl.line"
	printf '%s\t%s\t%s\t%s\t%s\n' "$set" "$wl" "$seed" "$side" "$(cat "$dest/$wl.line")" >>"$out/runs.tsv"
}

for wl in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$base" pairs "$i" "$i" "$wl"
			run head "$head" pairs "$i" "$i" "$wl"
		else
			run head "$head" pairs "$i" "$i" "$wl"
			run base "$base" pairs "$i" "$i" "$wl"
		fi
	done
	run base "$base" heldout 1 "$heldout" "$wl"
	run head "$head" heldout 1 "$heldout" "$wl"
	if [ "${TRACE:-0}" = 1 ]; then
		run base "$base" traced 1 1 "$wl"
		run head "$head" traced 1 1 "$wl"
	fi
done

# Per-pair table and wins, from the driver line each run ends with.
python3 - "$out/runs.tsv" <<'PY'
import json, sys
from collections import defaultdict
lower = {"setup_s", "admit_p50_ms", "confirm_p50_ms", "alloc_kb_per_tx", "heap_mb_end"}
runs = defaultdict(dict)  # (set, workload, seed) -> side -> metrics
for line in open(sys.argv[1]):
    kind, wl, seed, side, blob = line.rstrip("\n").split("\t", 4)
    doc = json.loads(blob)
    runs[(kind, wl, int(seed))][side] = {k: v["value"] for k, v in doc.get("metrics", {}).items()} if doc.get("correct") else None
wins = defaultdict(lambda: [0, 0, 0])  # (workload, metric) -> head wins, base wins, ties
print(f"{'set':8} {'workload':16} {'seed':>9} {'metric':16} {'base':>10} {'head':>10}  winner")
for (kind, wl, seed), sides in sorted(runs.items()):
    b, h = sides.get("base"), sides.get("head")
    if not b or not h:
        print(f"{kind:8} {wl:16} {seed:9} VOID base={b is not None} head={h is not None}")
        continue
    if kind == "traced":
        continue  # printed below, a chosen few of its ninety rows
    for m in sorted(b):
        better = (h[m] < b[m]) if m in lower else (h[m] > b[m])
        tie = h[m] == b[m]
        who = "tie" if tie else ("head" if better else "base")
        print(f"{kind:8} {wl:16} {seed:9} {m:16} {b[m]:10.4g} {h[m]:10.4g}  {who}")
        if kind == "pairs":
            wins[(wl, m)][2 if tie else (0 if better else 1)] += 1
print()
for (wl, m), (hw, bw, t) in sorted(wins.items()):
    print(f"{wl:16} {m:16} head wins {hw} of {hw + bw + t} pairs (base {bw}, ties {t})")
layers = ["node.submit_ms_max", "node.queue_wait_ms", "replicate_p50_ms", "gossip.request_ms_p50",
          "node.relay_handle_us_per_tx", "store.fsyncs_per_tx", "trace.stage_sum_gap_frac",
          "recovery_s", "catchup_tps", "node.replay_us_per_tx", "node.sync_page_ms", "node.sync_pages",
          "identity.verify_batch_us_per_sig", "identity.verify_us", "node.verify_cache_hits",
          "metrics.observe_ns", "metrics.hist_samples_end", "go.gc_cycles", "admit_p95_ms"]
for (kind, wl, seed), sides in sorted(runs.items()):
    b, h = sides.get("base"), sides.get("head")
    if kind == "traced" and b and h:
        print(f"\ntraced pair, {wl}, seed {seed} (one run a side: where a difference sits, not its size)")
        print(f"  {'metric':30} {'base':>12} {'head':>12}")
        for m in layers:
            print(f"  {m:30} {b.get(m, float('nan')):12.4g} {h.get(m, float('nan')):12.4g}")
PY

echo
(cd "$head" && bash bench/run.sh -compare "$out/pairs/base" "$out/pairs/head") || true
