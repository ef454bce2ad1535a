package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/croupier"
	"repro/internal/graph"
	"repro/internal/world"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// steadySizes are the frozen sizes of steady_seq and steady_sharded.
type steadySizes struct {
	Nodes      int `json:"nodes"`       // 20 % public
	JoinGapMS  int `json:"join_gap_ms"` // mean gap of the mixed Poisson join stream
	WarmRounds int `json:"warm_rounds"` // rounds between the join wave and measuring
	// MinRounds is the frozen unit of work: the checkpoint — checks,
	// fingerprint, est_err_avg, allocation and failure counts — is taken
	// after exactly this many measured rounds on every host, so those are
	// a function of the seed alone. Timed rounds continue past it until
	// -seconds have elapsed.
	MinRounds int `json:"min_rounds"`
	// MaxEstErr and MinCluster are the output-check thresholds.
	MaxEstErr  float64 `json:"max_est_err"`
	MinCluster float64 `json:"min_cluster_frac"`
}

var (
	steadyFull  = steadySizes{Nodes: 20000, JoinGapMS: 1, WarmRounds: 60, MinRounds: 50, MaxEstErr: 0.02, MinCluster: 0.99}
	steadySmoke = steadySizes{Nodes: 400, JoinGapMS: 1, WarmRounds: 30, MinRounds: 10, MaxEstErr: 0.1, MinCluster: 0.99}
)

// steadyTailQ is the frozen tail percentile of round times: with at
// least 50 rounds, p80 always has ten samples beyond it.
const steadyTailQ = 0.8

// shuffleCounts sums the always-on croupier counters over the world:
// requests sent, responses merged, exchanges still pending.
func shuffleCounts(w *world.World) (sent, merged uint64, pending int) {
	for _, n := range w.Nodes() {
		c, ok := n.Proto.(*croupier.Node)
		if !ok {
			continue
		}
		s, _, r := c.Stats()
		sent += s
		merged += r
		if n.Alive() {
			pending += c.PendingExchanges()
		}
	}
	return sent, merged, pending
}

// worldFingerprint hashes what a run computed: the overlay adjacency,
// the network and kernel counters and the sum of every node's ratio
// estimate. It is printed, never compared to a committed golden: equal
// seeds must give equal fingerprints, at any shard count.
func worldFingerprint(w *world.World, o *graph.Overlay) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, id := range o.IDs {
		put(uint64(id))
		put(uint64(len(o.Adj[i])))
		for _, nb := range o.Adj[i] {
			put(uint64(nb))
		}
	}
	put(w.Net.Sends())
	put(w.Net.Delivered())
	put(w.Net.Dropped())
	put(w.Kernel().Fired())
	var estSum float64
	for _, n := range w.Nodes() {
		if c, ok := n.Proto.(*croupier.Node); ok && n.Alive() {
			if est, ok := c.Estimate(); ok {
				estSum += est
			}
		}
	}
	put(math.Float64bits(estSum))
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// runSteady is steady_seq (shards = 1) and steady_sharded (shards = 2):
// a 20 000-node croupier world in steady state, stepped one simulated
// second — one gossip round — at a time. croupier (estimate store), view,
// exchange, simnet + nat + latency and sim do nearly all the work; the
// world lane does none. With two shards sim.Group's windows and barriers
// and simnet's cross-shard outboxes are on the path as well.
func runSteady(env *runEnv, res *result, shards int) error {
	sz := steadyFull
	if env.cfg.smoke {
		sz = steadySmoke
	}
	res.Sizes["steady"] = sz
	res.Sizes["shards"] = shards
	tr := env.tr

	// Set-up: join wave, then warm-up.
	setupSpan := tr.begin(env.root, "phase:setup")
	t0 := time.Now()
	w, err := world.New(world.Config{Kind: world.KindCroupier, Seed: env.cfg.seed, Shards: shards, SkipNatID: true, Registry: env.reg})
	if err != nil {
		return err
	}
	gap := time.Duration(sz.JoinGapMS) * time.Millisecond
	pub := sz.Nodes / 5
	joinSpan := tr.begin(setupSpan, "world.join_wave")
	w.MixedPoissonJoins(0, pub, sz.Nodes-pub, gap)
	now := time.Duration(sz.Nodes) * gap
	w.RunUntil(now)
	// The stream's last arrival lands randomly past the n·gap horizon.
	for len(w.Nodes()) < sz.Nodes {
		now += 50 * time.Millisecond
		w.RunUntil(now)
	}
	tr.end(joinSpan)
	joinWave := time.Since(t0).Seconds()
	warmSpan := tr.begin(setupSpan, "world.warm_up")
	now += time.Duration(sz.WarmRounds) * time.Second
	w.RunUntil(now)
	tr.end(warmSpan)
	setup := time.Since(t0).Seconds()
	tr.end(setupSpan)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapAfterSetup := ms.HeapInuse

	// Measured phase: one timed RunUntil per round.
	measureSpan := tr.begin(env.root, "phase:measure")
	deltas := env.counterDeltas()
	stopProfile := env.startProfile()
	sent0, merged0, pending0 := shuffleCounts(w)
	fired0, sends0, delivered0, dropped0 := w.Kernel().Fired(), w.Net.Sends(), w.Net.Delivered(), w.Net.Dropped()
	clock := startPhase()

	var (
		rounds   []float64 // ms
		elapsed  float64   // s, timed rounds only
		unit     phaseDelta
		unitWall float64
		overlay  graph.Overlay
		builder  graph.Builder
		estErr   float64
		fired    uint64
		sends    uint64
		deliv    uint64
		dropped  uint64
	)
	for len(rounds) < sz.MinRounds || elapsed < env.cfg.seconds {
		var sp int
		if tr != nil {
			sp = tr.begin(measureSpan, fmt.Sprintf("world.RunUntil#%d", len(rounds)))
		}
		t := time.Now()
		now += time.Second
		w.RunUntil(now)
		d := time.Since(t).Seconds()
		tr.end(sp)
		rounds = append(rounds, d*1000)
		elapsed += d
		if len(rounds) != sz.MinRounds {
			continue
		}

		// Checkpoint after the frozen unit of work, outside the timed rounds.
		unit = clock.stop()
		unitWall = elapsed
		cp := tr.begin(measureSpan, "bench.checkpoint")
		fired, sends, deliv, dropped = w.Kernel().Fired()-fired0, w.Net.Sends()-sends0, w.Net.Delivered()-delivered0, w.Net.Dropped()-dropped0
		sent1, merged1, pending1 := shuffleCounts(w)
		res.Attempted = int64(sent1 - sent0)
		// Every request opens a pending record that a merged response
		// closes; records that left any other way (TTL, replacement) are
		// shuffles without a merged response.
		res.Failed = int64(sent1-sent0) - int64(merged1-merged0) - int64(pending1-pending0)
		if res.Failed < 0 {
			res.Failed = 0
		}
		estErr, _, _ = w.MeasureEstimationError()
		w.SnapshotOverlay(&overlay, false)
		res.Fingerprint = worldFingerprint(w, &overlay)

		snap := builder.Build(&overlay)
		alive := len(w.AliveIDs())
		cluster := float64(snap.BiggestCluster()) / float64(alive)
		empty := 0
		for _, row := range overlay.Adj {
			if len(row) == 0 {
				empty++
			}
		}
		res.check("est_err_avg", estErr <= sz.MaxEstErr, "%.5f <= %.3f", estErr, sz.MaxEstErr)
		res.check("biggest_cluster", cluster >= sz.MinCluster, "%.4f of %d alive nodes >= %.2f", cluster, alive, sz.MinCluster)
		res.check("non_empty_views", empty == 0 && len(overlay.IDs) == alive, "%d of %d alive nodes have an empty view", empty+alive-len(overlay.IDs), alive)
		res.check("packet_accounting", w.Net.Delivered()+w.Net.Dropped() <= w.Net.Sends(), "delivered %d + dropped %d <= sends %d", w.Net.Delivered(), w.Net.Dropped(), w.Net.Sends())
		failFrac := float64(res.Failed) / math.Max(1, float64(res.Attempted))
		res.check("fail_frac", failFrac <= 0.001, "%d of %d shuffles without a merged response", res.Failed, res.Attempted)
		res.Detail["fail_frac"] = failFrac
		tr.end(cp)
	}
	cpuPerWall := (cpuSeconds() - clock.cpu0) / time.Since(clock.t0).Seconds()
	shares := stopProfile()
	res.Counters = deltas()
	tr.end(measureSpan)

	n := len(rounds)
	unitRounds := float64(sz.MinRounds)
	res.set("setup_s", setup, 0)
	res.set("wall_s", unitWall, 0)
	res.set("op_ms_p50", median(rounds), n)
	res.set("op_ms_tail", quantile(rounds, steadyTailQ), n)
	res.set("ops_per_s", float64(n)/elapsed, n)
	res.set("peak_rss_mb", peakRSSMB(), 0)
	res.set("allocs_per_op", float64(unit.mallocs)/unitRounds, 0)
	res.Detail["join_wave_s"] = joinWave
	res.Detail["round_ms_p50"] = median(rounds)
	res.Detail["round_ms_tail_q"] = steadyTailQ
	res.Detail["sim_speed"] = float64(n) / elapsed
	res.Detail["rounds_measured"] = float64(n)
	res.Detail["allocs_per_round"] = float64(unit.mallocs) / unitRounds
	res.Detail["est_err_avg"] = estErr
	res.Detail["host_cores"] = float64(runtime.NumCPU())

	if !env.cfg.trace {
		return nil
	}
	for l, s := range shares {
		res.layer(l+".cpu_share", s)
	}
	res.layer("croupier.est_err_avg", estErr)
	res.layer("sim.events_per_round", float64(fired)/unitRounds)
	res.layer("sim.events_per_s", float64(fired)/unitWall)
	res.layer("sim.cpu_per_wall", cpuPerWall)
	res.layer("simnet.sends_per_round", float64(sends)/unitRounds)
	res.layer("simnet.delivered_frac", float64(deliv)/math.Max(1, float64(sends)))
	res.layer("simnet.dropped_per_round", float64(dropped)/unitRounds)
	res.layer("world.join_us_per_node", joinWave*1e6/float64(sz.Nodes))
	res.layer("world.bytes_per_node", float64(heapAfterSetup)/float64(sz.Nodes))
	res.layer("world.bytes_per_round", float64(unit.bytes)/unitRounds)

	// Probes of the world-lane calls the paper suite leans on, on this
	// world, after the timed rounds.
	ps := tr.begin(env.root, "phase:world_probes")
	res.layer("world.measure_est_err_us", timeCalls(tr, ps, "world.MeasureEstimationError", 5, 4, func() { w.MeasureEstimationError() })/1e3)
	res.layer("world.snapshot_overlay_ms", timeCalls(tr, ps, "world.SnapshotOverlay", 5, 4, func() { w.SnapshotOverlay(&overlay, true) })/1e6)
	tr.end(ps)
	return nil
}
