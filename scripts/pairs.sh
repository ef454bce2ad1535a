#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against this checkout — the
# evidence a gain claim needs (choosing-metrics guide: paired,
# alternating runs on shared seeds, not two distant sets):
#
#   scripts/pairs.sh <parent-ref> <workload> <pairs>
#
# The parent's committed tree is exported into a temp dir (removed on
# exit) and each side builds and runs its own bench/run.sh, exactly as
# the benchmark driver does. Pair k runs both sides on seed k; odd pairs
# run the parent first, even pairs the change. One line per pair gives
# every end-to-end metric of BENCHMARK.json as parent/change and the
# side that won it; a tally of wins per metric and bench's --compare of
# the two result sets follow. Results stay in $PAIRS_OUT (default: a
# fresh temp dir, printed first). Needs jq.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 <parent-ref> <workload> <pairs>" >&2
  exit 2
fi
ref=$1 workload=$2 pairs=$3
root=$(cd "$(dirname "$0")/.." && pwd)
parent=$(mktemp -d -t pairs-parent.XXXXXX)
trap 'rm -rf "$parent"' EXIT
out=${PAIRS_OUT:-$(mktemp -d -t pairs-out.XXXXXX)}
mkdir -p "$out/parent" "$out/change"
echo "pairs: $ref vs $root, $workload, $pairs pairs; results in $out"

git -C "$root" archive "$(git -C "$root" rev-parse --verify "$ref^{commit}")" | tar -x -C "$parent"
# Build both benchmarks before the first pair (-manifest only prints).
bash "$parent/bench/run.sh" -manifest >/dev/null
bash "$root/bench/run.sh" -manifest >/dev/null

mapfile -t names < <(jq -r '.end_to_end[].name' "$root/BENCHMARK.json")
mapfile -t better < <(jq -r '.end_to_end[].better' "$root/BENCHMARK.json")
declare -A tree=([parent]=$parent [change]=$root) line wins

# run <side> <seed>: one benchmark run; sets line[side] to its contract line.
run() {
  local log="$out/$1/$workload-seed$2"
  if ! bash "${tree[$1]}/bench/run.sh" --workload "$workload" --seed "$2" --out "$out/$1" >"$log.log" 2>"$log.err"; then
    echo "pairs: $1 run on seed $2 failed; see $log.log" >&2
    exit 1
  fi
  line[$1]=$(tail -n 1 "$log.log")
}

for ((seed = 1; seed <= pairs; seed++)); do
  order="parent change"
  ((seed % 2)) || order="change parent"
  for side in $order; do
    run "$side" "$seed"
  done
  row=$(printf 'pair %2d seed=%-3d first=%-6s' "$seed" "$seed" "${order%% *}")
  for i in "${!names[@]}"; do
    m=${names[i]}
    p=$(jq -r ".metrics.$m.value" <<<"${line[parent]}")
    c=$(jq -r ".metrics.$m.value" <<<"${line[change]}")
    won=$(awk -v p="$p" -v c="$c" -v b="${better[i]}" \
      'BEGIN { if (p == c) print "tie"; else if ((b == "lower") == (c < p)) print "change"; else print "parent" }')
    [ "$won" = change ] && wins[$m]=$((${wins[$m]:-0} + 1))
    row+=$(printf '  %s %.4g/%.4g %s' "$m" "$p" "$c" "$won")
  done
  for side in parent change; do
    [ "$(jq -r '.correct and .failed == 0' <<<"${line[$side]}")" = true ] || row+="  [$side: check failed or failed>0]"
  done
  echo "$row"
done

for m in "${names[@]}"; do
  echo "change won $m in ${wins[$m]:-0} of $pairs pairs"
done
bash "$root/bench/run.sh" --compare "$out/parent" "$out/change"
