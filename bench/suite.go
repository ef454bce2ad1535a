package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/world"
)

// suiteSizes are the frozen sizes of paper_suite.
type suiteSizes struct {
	FigFactor     float64 `json:"fig_factor"`     // experiment.Scale.Factor, Seeds: 1
	ScenarioScale float64 `json:"scenario_scale"` // scenario.RunConfig.Scale
	SetupRepeats  int     `json:"setup_repeats"`  // library loads whose median is setup_s
	// Output-check thresholds on the croupier scenario finals, pinned
	// from seed behaviour: every library scenario ends (or recovers) in
	// one cluster and with a small estimation error.
	MinCluster float64 `json:"min_cluster_frac"`
	MaxEstErr  float64 `json:"max_est_err"`
}

var (
	suiteFull  = suiteSizes{FigFactor: 0.15, ScenarioScale: 0.2, SetupRepeats: 201, MinCluster: 0.99, MaxEstErr: 0.05}
	suiteSmoke = suiteSizes{FigFactor: 0.02, ScenarioScale: 0.05, SetupRepeats: 5, MinCluster: 0.9, MaxEstErr: 0.2}
)

// suiteTailQ is the frozen tail percentile of job times. The 32 jobs are
// a fixed list, not a sample: p80 names the slow fifth, which is the
// nylon scenarios.
const suiteTailQ = 0.8

var suiteKinds = []world.Kind{world.KindCroupier, world.KindCyclon, world.KindGozar, world.KindNylon}

// loadLibrary is paper_suite's set-up: look up, validate and scale every
// library scenario, and round-trip it through the JSON form scenario
// files use.
func loadLibrary(scale float64) ([]scenario.Scenario, error) {
	names := scenario.Names()
	out := make([]scenario.Scenario, 0, len(names))
	for _, name := range names {
		sc, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("library scenario %s: %w", name, err)
		}
		b, err := json.Marshal(sc)
		if err != nil {
			return nil, fmt.Errorf("library scenario %s: %w", name, err)
		}
		parsed, err := scenario.ParseJSON(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("library scenario %s: %w", name, err)
		}
		_ = parsed.Scaled(scale)
		out = append(out, sc)
	}
	return out, nil
}

// tsvWriter is what every figure result offers.
type tsvWriter interface{ WriteTSV(io.Writer) error }

// runSuite is paper_suite: time-to-result for the paper's evaluation —
// four figures, then the seven-scenario library on all four systems,
// sequentially. Hundreds of small worlds are built; churn, partitions,
// NAT drift and mapping expiry mutate simnet, nat and world beside steady
// gossip; probes and graph analysis run throughout; three of the four
// systems never touch the estimate store. The steady round is a minority
// here. Figures use their own fixed seeds; the scenarios take -seed.
//
// The suite is a fixed list of jobs sized to take about -seconds on the
// reference host; it runs once whatever -seconds says, because its
// checks and fingerprint are defined on the whole list.
func runSuite(env *runEnv, res *result) error {
	sz := suiteFull
	if env.cfg.smoke {
		sz = suiteSmoke
	}
	res.Sizes["suite"] = sz
	tr := env.tr

	setupSpan := tr.begin(env.root, "phase:setup")
	var lib []scenario.Scenario
	loads := make([]float64, 0, sz.SetupRepeats)
	for i := 0; i < sz.SetupRepeats; i++ {
		t := time.Now()
		l, err := loadLibrary(sz.ScenarioScale)
		if err != nil {
			return err
		}
		loads = append(loads, time.Since(t).Seconds())
		lib = l
	}
	tr.end(setupSpan)

	measureSpan := tr.begin(env.root, "phase:measure")
	deltas := env.counterDeltas()
	stopProfile := env.startProfile()
	clock := startPhase()
	hash := sha256.New()
	var (
		jobs     []float64 // ms
		failed   int64
		layerSec = map[string]float64{}
	)
	job := func(span, layer string, run func() error) {
		sp := tr.begin(measureSpan, span)
		t := time.Now()
		err := run()
		d := time.Since(t).Seconds()
		tr.end(sp)
		jobs = append(jobs, d*1000)
		layerSec[layer] += d
		if err != nil {
			failed++
			res.check("job:"+span, false, "%v", err)
		}
	}

	scale := experiment.Scale{Factor: sz.FigFactor, Seeds: 1, Workers: 1, Shards: 1}
	figure := func(name string, run func() (tsvWriter, error)) {
		job("experiment.Run"+name, "experiment."+name+"_s", func() error {
			fig, err := run()
			if err != nil {
				return err
			}
			return fig.WriteTSV(hash)
		})
	}
	figure("fig3", func() (tsvWriter, error) {
		c := experiment.NewFig3Config()
		c.Scale = scale
		return experiment.RunFig3(c)
	})
	figure("fig6b", func() (tsvWriter, error) {
		c := experiment.NewFig6bcConfig()
		c.Scale = scale
		return experiment.RunFig6b(c)
	})
	figure("fig7a", func() (tsvWriter, error) {
		c := experiment.NewFig7aConfig()
		c.Scale = scale
		return experiment.RunFig7a(c)
	})
	figure("fig7b", func() (tsvWriter, error) {
		c := experiment.NewFig7bConfig()
		c.Scale = scale
		return experiment.RunFig7b(c)
	})
	figsSec := time.Since(clock.t0).Seconds()

	var estErrs []float64
	for _, kind := range suiteKinds {
		for _, sc := range lib {
			span := fmt.Sprintf("scenario.Run{%s,%s}", sc.Name, kind)
			job(span, "scenario."+kind.String()+"_s", func() error {
				r, err := scenario.Run(sc, scenario.RunConfig{Kind: kind, Seed: env.cfg.seed, Scale: sz.ScenarioScale, Registry: env.reg})
				if err != nil {
					return err
				}
				if err := r.WriteJSON(hash); err != nil {
					return err
				}
				if kind != world.KindCroupier {
					return nil
				}
				cluster, estErr := float64(r.FinalClusterFrac), float64(r.FinalEstErrAvg)
				estErrs = append(estErrs, estErr)
				// NaN fails both comparisons, as it should.
				if !(cluster >= sz.MinCluster) || !(estErr <= sz.MaxEstErr) {
					return fmt.Errorf("final cluster_frac %.4f (want >= %.2f), est_err_avg %.4f (want <= %.2f)", cluster, sz.MinCluster, estErr, sz.MaxEstErr)
				}
				return nil
			})
		}
	}
	unit := clock.stop()
	cpuPerWall := unit.cpu / unit.wall
	shares := stopProfile()
	res.Counters = deltas()
	tr.end(measureSpan)

	n := len(jobs)
	res.Attempted, res.Failed = int64(n), failed
	res.check("jobs", failed == 0, "%d of %d jobs failed or broke a bound", failed, n)
	res.Fingerprint = hex.EncodeToString(hash.Sum(nil)[:12])
	var estErr float64
	for _, e := range estErrs {
		estErr += e / float64(len(estErrs))
	}

	res.set("setup_s", median(loads), len(loads))
	res.set("wall_s", unit.wall, 0)
	res.set("op_ms_p50", median(jobs), n)
	res.set("op_ms_tail", quantile(jobs, suiteTailQ), n)
	res.set("ops_per_s", float64(n)/unit.wall, n)
	res.set("peak_rss_mb", peakRSSMB(), 0)
	res.set("allocs_per_op", float64(unit.mallocs)/math.Max(1, float64(n)), 0)
	res.Detail["figs_s"] = figsSec
	res.Detail["scenarios_s"] = unit.wall - figsSec
	res.Detail["est_err_avg"] = estErr
	res.Detail["fail_frac"] = float64(failed) / math.Max(1, float64(n))
	res.Detail["job_ms_tail_q"] = suiteTailQ
	// The spans are free, so the per-job split is reported untraced too.
	for layer, s := range layerSec {
		res.Detail[layer] = s
	}

	if !env.cfg.trace {
		return nil
	}
	for l, s := range shares {
		res.layer(l+".cpu_share", s)
	}
	for layer, s := range layerSec {
		res.layer(layer, s)
	}
	res.layer("croupier.est_err_avg", estErr)
	res.layer("sim.cpu_per_wall", cpuPerWall)
	return nil
}
