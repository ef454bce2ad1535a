package main

import (
	"math"
	"math/bits"
	"sort"
)

// metricDef describes one metric of the benchmark. BENCHMARK.json at
// the repository root carries the same names, units and bounds; a test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it a regression. Per-layer
	// metrics have none.
	Bound float64
	// Doc says what the metric is on each workload (end to end) or which
	// end-to-end metric it should move (per layer); README.md renders it.
	Doc string
}

// The four workloads, in the order -workload all runs them.
const (
	wlSteadySeq     = "steady_seq"
	wlSteadySharded = "steady_sharded"
	wlPaperSuite    = "paper_suite"
	wlUDPServe      = "udp_serve"
)

var workloadNames = []string{wlSteadySeq, wlSteadySharded, wlPaperSuite, wlUDPServe}

// workloadWhy is each workload's one-line reason to exist, as
// BENCHMARK.json records it.
var workloadWhy = map[string]string{
	wlSteadySeq:     "20k-node croupier world in steady state on one kernel shard: the estimate store, view, exchange, simnet+nat+latency and sim do nearly all the work; the world lane does none",
	wlSteadySharded: "the same world and schedule on two kernel shards: sim.Group windows and barriers and simnet's cross-shard outboxes join the path; its fingerprint must equal steady_seq's",
	wlPaperSuite:    "time to result for the paper's evaluation: 4 figures and 7 scenarios x 4 systems; many small worlds, churn, partitions, probes and graph analysis; the estimate store idles in 3 of 4 systems",
	wlUDPServe:      "one deploy.Node on a real loopback UDP socket under a closed loop of 2 clients: the only workload that runs deploy, ratelimit and wire; no simulator layer runs",
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them: an operation is one gossip round of the
// 20k world (steady_*), one figure or scenario job (paper_suite), or one
// shuffle round trip (udp_serve).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"steady_*: join wave + 60 warm rounds; paper_suite: load, validate and scale the scenario library (median of many repeats); udp_serve: node start + warm-up"},
	{"wall_s", "s", "lower", 0.25,
		"wall time of the workload's frozen unit of work: the first 50 measured rounds (steady_*), one pass of figures + scenarios (paper_suite), the first 500 000 round trips (udp_serve)"},
	{"op_ms_p50", "ms", "lower", 0.25,
		"median operation time: round (steady_*, ISSUE round_ms_p50), job (paper_suite), request round trip (udp_serve, ISSUE rtt_us_p50 in ms)"},
	{"op_ms_tail", "ms", "lower", 0.25,
		"tail operation time at the workload's frozen percentile, chosen so at least ten samples lie beyond it: p80 of >=50 rounds (steady_*), p80 of the 32 jobs (paper_suite), p99 of round trips (udp_serve)"},
	{"ops_per_s", "1/s", "higher", 0.25,
		"operations per wall second over the measured phase: rounds/s = simulated seconds per wall second (steady_*, ISSUE sim_speed), jobs/s (paper_suite), responses/s (udp_serve, ISSUE req_per_s)"},
	{"peak_rss_mb", "MB", "lower", 0.20,
		"VmHWM of the benchmark process at the end of the measured phase"},
	{"allocs_per_op", "count", "lower", 0.06,
		"heap objects allocated per operation (MemStats.Mallocs delta over the frozen unit of work / its operations)"},
}

// cpuShareLayers are the buckets a CPU profile's leaf frames fold into.
// "runtime" takes the Go runtime and the standard library (GC, scheduler,
// syscalls, memmove); "other" takes the rest of the repository and the
// benchmark's own load generator, so the shares sum to 1.
var cpuShareLayers = []string{
	"croupier", "view", "exchange", "simnet", "nat", "latency", "sim", "intern", "world",
	"cyclon", "gozar", "nylon", "graph", "deploy", "runtime", "other",
}

const (
	movesRound  = "op_ms_p50 on steady_*"
	movesSuite  = "wall_s on paper_suite"
	movesServe  = "ops_per_s and op_ms_p50 on udp_serve"
	noSimChange = "; no change on any simulator workload"
)

// perLayer lists the metrics of single layers, reported by a traced run.
// A metric measured from the workload's own run (cpu shares, counters,
// world and suite spans, deploy fractions) reads 0 on workloads that do
// not exercise it; the API probes run after every traced workload.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range cpuShareLayers {
		out = append(out, metricDef{l + ".cpu_share", "share", "lower", 0,
			"leaf-frame share of the measured phase's CPU profile; a layer made k times faster saves at most share*(1-1/k) of " + movesRound})
	}
	add := func(name, unit, better, doc string) {
		out = append(out, metricDef{name, unit, better, 0, doc})
	}
	add("croupier.handle_req_ns", "ns", "lower", "estimate-store merge + draw on the responder side, store at 4000 origins; moves "+movesRound+" and "+movesServe+"; no change on cyclon/gozar/nylon.node_round_us")
	add("croupier.round_ns", "ns", "lower", "one initiated round and its merged response over a stub transport; moves "+movesRound)
	add("croupier.est_err_avg", "abs", "lower", "simulated result, not a timing: mean |w - w^| at the checkpoint (steady_*) or over the croupier scenario finals (paper_suite); must not move when a timing does")
	for _, k := range []string{"croupier", "cyclon", "gozar", "nylon"} {
		add(k+".node_round_us", "us", "lower", "wall us per node-round of a 2000-node steady world; moves "+movesSuite+" (nylon dominates); croupier's also "+movesRound)
	}
	add("sim.schedule_step_ns", "ns", "lower", "Step + re-Schedule on a wheel holding 60k pending events; moves "+movesRound+" and "+movesSuite)
	add("sim.events_per_round", "count", "lower", "Kernel().Fired() delta per measured round (steady_*)")
	add("sim.events_per_s", "1/s", "higher", "events fired per wall second over the measured phase (steady_*)")
	add("sim.group_window_us", "us", "lower", "one window + barrier of a 2-shard sim.Group with one trivial event per shard; moves op_ms_p50 on steady_sharded only, no change on steady_seq")
	add("sim.cpu_per_wall", "ratio", "higher", "process CPU seconds per wall second over the measured phase; below 2.0 on steady_sharded is time shards waited at barriers")
	add("simnet.send_deliver_ns.pub", "ns", "lower", "public to public send + delivery; moves "+movesRound)
	add("simnet.send_deliver_ns.cone", "ns", "lower", "private behind a cone gateway to public and the reply; moves "+movesRound)
	add("simnet.send_deliver_ns.sym", "ns", "lower", "private behind a symmetric gateway to public and the reply; moves "+movesSuite)
	add("simnet.sends_per_round", "count", "lower", "Net.Sends() delta per measured round (steady_*)")
	add("simnet.delivered_frac", "share", "higher", "Net.Delivered() / Net.Sends() deltas over the measured phase (steady_*)")
	add("simnet.dropped_per_round", "count", "lower", "Net.Dropped() delta per measured round (steady_*); drops also move failed/attempted")
	add("nat.outbound_ns", "ns", "lower", "Outbound on a warm mapping; moves "+movesRound)
	add("nat.inbound_ns", "ns", "lower", "Inbound through a warm mapping; moves "+movesRound)
	add("nat.new_mapping_ns", "ns", "lower", "Outbound that must allocate a fresh mapping; moves setup_s on steady_* and "+movesSuite+", not the steady round")
	add("latency.delay_ns", "ns", "lower", "KingLike.Delay for random pairs among 20k nodes; moves "+movesRound)
	add("view.merge_ns", "ns", "lower", "View.Merge of 5 sent / 5 received into a full view; moves every workload")
	add("view.subset_ns", "ns", "lower", "View.RandomSubsetInto of 5 from 10; moves every workload")
	add("exchange.round_ns", "ns", "lower", "Engine.RunRound with a stub Protocol; moves every workload")
	add("intern.ref_ns", "ns", "lower", "Origins.Ref of a known identity among 4000; moves "+movesRound)
	add("bootstrap.publics_into_ns", "ns", "lower", "Server.PublicsInto of 5 from 4000; moves setup_s on steady_* and "+movesSuite)
	add("world.join_us_per_node", "us", "lower", "join-wave wall time / nodes (steady_*); moves setup_s")
	add("world.bytes_per_node", "B", "lower", "heap in use after GC at the end of set-up / nodes (steady_*); moves peak_rss_mb")
	add("world.bytes_per_round", "B", "lower", "MemStats.TotalAlloc delta per measured round (steady_*); moves allocs_per_op")
	add("world.measure_est_err_us", "us", "lower", "MeasureEstimationError on the 20k world (steady_*); moves "+movesSuite+", no change on steady_* timings (runs outside the timed rounds)")
	add("world.snapshot_overlay_ms", "ms", "lower", "SnapshotOverlay of the 20k world (steady_*); moves "+movesSuite)
	add("graph.build_us", "us", "lower", "Builder.Build of a 1000-vertex overlay; moves "+movesSuite)
	add("graph.pathlen_ms", "ms", "lower", "AvgPathLength of a 1000-vertex snapshot; moves "+movesSuite)
	add("graph.clustering_ms", "ms", "lower", "ClusteringCoefficient of a 1000-vertex snapshot; moves "+movesSuite)
	add("graph.biggest_cluster_us", "us", "lower", "BiggestCluster of a 1000-vertex snapshot; moves "+movesSuite)
	for _, f := range []string{"fig3", "fig6b", "fig7a", "fig7b"} {
		add("experiment."+f+"_s", "s", "lower", "span around the figure run (paper_suite); the four sum to the figure part of wall_s")
	}
	for _, k := range []string{"croupier", "cyclon", "gozar", "nylon"} {
		add("scenario."+k+"_s", "s", "lower", "spans around this system's scenario runs (paper_suite); the four sum to the scenario part of wall_s")
	}
	add("deploy.encode_req_ns", "ns", "lower", "EncodeShuffleReq; moves "+movesServe+noSimChange)
	add("deploy.decode_req_ns", "ns", "lower", "pooled Decoder.Decode of a request; moves "+movesServe+noSimChange)
	add("deploy.encode_res_ns", "ns", "lower", "EncodeShuffleRes; moves "+movesServe+noSimChange)
	add("deploy.decode_res_ns", "ns", "lower", "pooled Decoder.Decode of a response; moves "+movesServe+noSimChange)
	add("deploy.decode_junk_ns", "ns", "lower", "rejecting truncated and inflated-count frames; hostile-traffic use of the codec, must not worsen when decode_req_ns improves")
	add("wire.reader_ns", "ns", "lower", "one pass of wire.Reader over a descriptor-sized frame; moves "+movesServe)
	add("ratelimit.allow_ns", "ns", "lower", "Allow for a warm peer inside its budget; moves "+movesServe)
	add("ratelimit.shed_ns", "ns", "lower", "Allow for an over-budget peer; hostile-traffic use, must not worsen when allow_ns improves")
	add("ratelimit.evict_ns", "ns", "lower", "Allow for a never-seen peer past MaxPeers; hostile-traffic use, must not worsen when allow_ns improves")
	add("deploy.memconn_req_per_s", "1/s", "higher", "the udp_serve closed loop over the benchmark's in-memory PacketConn (udp_serve): the program's receive path without kernel sockets")
	add("deploy.udp_kernel_share", "share", "lower", "1 - udp/memconn throughput (udp_serve): what the kernel socket path costs")
	add("deploy.inbox_drop_frac", "share", "lower", "deploy_inbox_drops_total / datagrams received (udp_serve); drops move failed/attempted")
	add("deploy.decode_err_frac", "share", "lower", "deploy_decode_errors_total / datagrams received (udp_serve)")
	add("deploy.rl_drop_frac", "share", "lower", "deploy_ratelimit_dropped_total / datagrams received (udp_serve)")
	add("metrics.counter_inc_ns", "ns", "lower", "Counter.Inc; the unit price of the observability plane")
	add("trace_overhead_frac", "share", "lower", "(traced - untraced wall_s) / untraced, against the latest untraced result of the same workload, seed and size in -out; 0 when there is none")
	return out
}()

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (exclusive method) — the steadiness measure the driver applies.
// It needs at least two samples.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// quartile i of 4, as statistics.quantiles computes it.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(at(3)-at(1)) / math.Abs(m)
}

// latHist is a log-linear histogram of nanosecond durations, 64 buckets
// per power of two: a quantile read from it is within 1 % of the exact
// value, in constant memory however many samples arrive — so udp_serve's
// peak RSS is the program's, not the load generator's sample store.
type latHist struct {
	counts [40 * 64]uint64
	n      uint64
}

func (h *latHist) add(ns int64) {
	v := uint64(max(ns, 0))
	idx := int(v)
	if v >= 64 {
		e := bits.Len64(v) - 7 // v>>e is in [64, 128)
		idx = min((e+1)*64+int(v>>e)-64, len(h.counts)-1)
	}
	h.counts[idx]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated by rank
// inside the bucket that holds it; 0 for an empty histogram.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			if i < 64 {
				return float64(i) // these buckets hold exact values
			}
			e := i/64 - 1
			lo, width := float64(uint64(64+i%64)<<e), float64(uint64(1)<<e)
			return lo + width*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}
