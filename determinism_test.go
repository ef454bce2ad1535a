// The determinism golden test: the parallel runner must be invisible in
// the results. The same (config, seed) jobs executed sequentially and
// under a multi-worker pool have to produce byte-identical metric
// series, for all four protocols — the contract that makes cross-run
// parallelism safe to use for every figure, sweep and scenario.
package repro_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/experiment"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/world"
)

// allKinds lists the four systems, for the tests that cover each.
var allKinds = []world.Kind{world.KindCroupier, world.KindCyclon, world.KindGozar, world.KindNylon}

// scenarioBytes serialises one scenario run into its exported TSV and
// JSON forms — the byte-level identity the golden test compares. It
// returns errors rather than failing the test because it runs inside
// runner worker goroutines, where t.Fatal is not allowed.
func scenarioBytes(name string, cfg scenario.RunConfig) ([]byte, error) {
	sc, err := scenario.Lookup(name)
	if err != nil {
		return nil, err
	}
	res, err := scenario.Run(sc, cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		return nil, err
	}
	if err := res.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestParallelRunnerIsByteIdenticalAllProtocols runs the same
// (protocol, seed) matrix twice — sequentially and under the parallel
// runner — and requires byte-identical exports for every job.
func TestParallelRunnerIsByteIdenticalAllProtocols(t *testing.T) {
	seeds := []int64{1, 2}
	type job struct {
		kind world.Kind
		seed int64
	}
	var jobs []job
	for _, kind := range allKinds {
		for _, seed := range seeds {
			jobs = append(jobs, job{kind, seed})
		}
	}
	run := func(workers int) [][]byte {
		out, err := runner.Map(runner.Options{Workers: workers}, jobs, func(j job) ([]byte, error) {
			return scenarioBytes("flashcrowd", scenario.RunConfig{Kind: j.kind, Seed: j.seed, Scale: 0.04})
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sequential := run(1)
	parallel := run(4)
	for i, j := range jobs {
		if len(sequential[i]) == 0 {
			t.Fatalf("%v seed %d: empty export", j.kind, j.seed)
		}
		if !bytes.Equal(sequential[i], parallel[i]) {
			t.Errorf("%v seed %d: parallel export differs from sequential (%d vs %d bytes)",
				j.kind, j.seed, len(parallel[i]), len(sequential[i]))
		}
	}
}

// TestParallelFigureIsByteIdentical covers the experiment harness end
// to end: a multi-variant, multi-seed figure rendered from a parallel
// sweep must serialise byte-identically to the sequential sweep.
func TestParallelFigureIsByteIdentical(t *testing.T) {
	render := func(workers int) string {
		cfg := experiment.NewFig3Config()
		cfg.Sizes = []int{50, 100}
		cfg.Scale = experiment.Scale{Factor: 0.5, Seeds: 3, Rounds: 25, Workers: workers}
		fig, err := experiment.RunFig3(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fig.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		// Ratio is part of the figure state even though WriteTSV omits
		// it; fold it into the comparison.
		fmt.Fprintf(&buf, "ratio:%v|%v", fig.Ratio.X, fig.Ratio.Y)
		return buf.String()
	}
	sequential := render(1)
	parallel := render(4)
	if sequential != parallel {
		t.Fatal("parallel figure differs from sequential figure")
	}
}
