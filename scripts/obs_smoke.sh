#!/usr/bin/env bash
# Observability smoke: run one small scenario with the live dashboard
# attached and assert that the three HTTP surfaces are well-formed — a
# Prometheus scrape, an SSE stream that replays the full run, and the
# embedded dashboard page — and that the simulator binaries write their
# -cpuprofile/-memprofile files. Exercised by CI on every push.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${OBS_SMOKE_PORT:-8713}"
OUT="$(mktemp -d)"
BIN="$OUT/croupier-scenario"
trap 'kill "$SRV_PID" "$DEMO_PID" 2>/dev/null || true; rm -rf "$OUT"' EXIT
SRV_PID=""
DEMO_PID=""

go build -o "$BIN" ./cmd/croupier-scenario

"$BIN" -http "$ADDR" -scale 0.1 -out "$OUT/results" \
  -cpuprofile "$OUT/scenario.cpu.prof" -memprofile "$OUT/scenario.mem.prof" \
  partition >"$OUT/run.log" 2>&1 &
SRV_PID=$!

# Wait for the server to come up (the run itself finishes in well under
# a second at this scale; the server keeps serving afterwards).
for i in $(seq 1 50); do
  if curl -sf "http://$ADDR/metrics" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$SRV_PID" 2>/dev/null; then
    echo "FAIL: croupier-scenario exited early" >&2
    cat "$OUT/run.log" >&2
    exit 1
  fi
  sleep 0.2
done

fail() { echo "FAIL: $1" >&2; exit 1; }

# 1. Prometheus scrape: text-format TYPE/HELP lines and the core series.
curl -sf "http://$ADDR/metrics" >"$OUT/metrics.txt"
grep -q '^# TYPE simnet_sends_total counter$' "$OUT/metrics.txt" \
  || fail "scrape missing simnet_sends_total TYPE line"
grep -q '^# TYPE simnet_delay_us histogram$' "$OUT/metrics.txt" \
  || fail "scrape missing delay histogram TYPE line"
grep -Eq '^pss_rounds_total\{proto="croupier"\} [1-9][0-9]*$' "$OUT/metrics.txt" \
  || fail "scrape missing a non-zero pss_rounds_total sample"
grep -Eq '^simnet_delay_us_count [1-9][0-9]*$' "$OUT/metrics.txt" \
  || fail "scrape missing a non-zero histogram count"

# 2. SSE stream: replay must deliver the job header, probe samples and
# the done frame even though we subscribe after the run finished.
curl -sN --max-time 5 "http://$ADDR/events" >"$OUT/events.txt" || true
grep -q '^event: job$' "$OUT/events.txt" || fail "SSE stream missing job frame"
grep -q '^event: sample$' "$OUT/events.txt" || fail "SSE stream missing sample frames"
grep -q '^event: done$' "$OUT/events.txt" || fail "SSE stream missing done frame"
grep -q '"est_err_avg"' "$OUT/events.txt" || fail "sample frames missing probe fields"
grep -q '"indeg_deciles"' "$OUT/events.txt" || fail "sample frames missing in-degree deciles"

# 3. Dashboard page. (Download, then grep: grep -q on a pipe would kill
# curl with EPIPE at first match and trip pipefail.)
curl -sf "http://$ADDR/" >"$OUT/page.html"
grep -q '<title>croupier-scenario' "$OUT/page.html" \
  || fail "dashboard page not served"

# 4. The run itself must have written its usual deterministic outputs.
test -s "$OUT/results/partition-croupier.tsv" || fail "TSV output missing"
test -s "$OUT/results/partition-croupier.json" || fail "JSON output missing"

# 5. Profiles: each simulator binary writes a CPU profile of its run and
# a post-GC heap profile when it exits (the dashboard run on SIGINT).
kill -INT "$SRV_PID"
wait "$SRV_PID" || fail "croupier-scenario did not exit cleanly on SIGINT"
SRV_PID=""
go build -o "$OUT/croupier-sim" ./cmd/croupier-sim
go build -o "$OUT/croupier-randcheck" ./cmd/croupier-randcheck
"$OUT/croupier-sim" -scale 0.05 -seeds 1 -rounds 50 -no-plot -out "$OUT/sim" \
  -cpuprofile "$OUT/sim.cpu.prof" -memprofile "$OUT/sim.mem.prof" fig1 >/dev/null
"$OUT/croupier-randcheck" -canary -ratios 0.2 -seeds 1 -rounds 60 -out "$OUT/randcheck" \
  -cpuprofile "$OUT/randcheck.cpu.prof" -memprofile "$OUT/randcheck.mem.prof" >/dev/null
for p in scenario sim randcheck; do
  test -s "$OUT/$p.cpu.prof" || fail "croupier-$p wrote no CPU profile"
  test -s "$OUT/$p.mem.prof" || fail "croupier-$p wrote no heap profile"
done

# 6. Deployment hardening: a flooded loopback swarm must shed the junk
# at the receive-path rate limiter, visible on its own scrape as a
# non-zero deploy_ratelimit_dropped_total (and reject oversize frames).
DEMO_ADDR="127.0.0.1:${OBS_SMOKE_DEMO_PORT:-8714}"
go build -o "$OUT/croupier-node" ./cmd/croupier-node
"$OUT/croupier-node" demo -duration 6s -flood -metrics-addr "$DEMO_ADDR" \
  >"$OUT/demo.log" 2>&1 &
DEMO_PID=$!
DROPPED=0
for i in $(seq 1 50); do
  if curl -sf "http://$DEMO_ADDR/metrics" >"$OUT/demo-metrics.txt" 2>/dev/null \
     && grep -Eq '^deploy_ratelimit_dropped_total [1-9][0-9]*$' "$OUT/demo-metrics.txt" \
     && grep -Eq '^deploy_oversize_total [1-9][0-9]*$' "$OUT/demo-metrics.txt"; then
    DROPPED=1
    break
  fi
  if ! kill -0 "$DEMO_PID" 2>/dev/null; then break; fi
  sleep 0.2
done
if ! wait "$DEMO_PID"; then
  cat "$OUT/demo.log" >&2
  fail "croupier-node demo exited with an error"
fi
DEMO_PID=""
[ "$DROPPED" = 1 ] || fail "flooded demo never scraped a non-zero deploy_ratelimit_dropped_total"
grep -q '^hardening: ratelimit_dropped=' "$OUT/demo.log" \
  || fail "demo did not print its hardening summary"

echo "observability smoke OK ($(grep -c '^event: sample$' "$OUT/events.txt") samples streamed; flood shed $(grep -Eo '^deploy_ratelimit_dropped_total [0-9]+' "$OUT/demo-metrics.txt" | cut -d' ' -f2) datagrams)"
