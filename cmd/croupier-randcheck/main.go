// Command croupier-randcheck runs the statistical randomness-
// verification sweep: the full NAT-ratio grid × any subset of the four
// peer-sampling systems × several seeds, each run recording a long
// partner-selection trace plus application-level Sample() draws and
// judging them with the internal/randcheck uniformity battery
// (chi-squared partner/sample uniformity, windowed total-variation and
// convergence, per-NAT-class sampling bias).
//
// Usage:
//
//	croupier-randcheck [flags]
//	croupier-randcheck -canary [flags]
//
// Output goes to <out>/randcheck.tsv (one row per run), .json (full
// reports including the window TV series) and randcheck-agg.tsv (one
// row per protocol × ratio, condensed across seeds); a per-aggregate
// summary is printed to stdout. Runs are deterministic: the same grid
// and seeds produce byte-identical outputs at any -parallel setting.
//
// -canary swaps in croupier's deliberately biased weight-by-ID
// selector and inverts the exit criterion: the process fails unless
// every canary run is rejected at the significance level. A CI step
// runs this mode to prove the battery keeps its statistical power.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/randcheck"
	"repro/internal/world"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "croupier-randcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("croupier-randcheck", flag.ContinueOnError)
	var (
		kindF    = fs.String("kind", "all", "protocol: croupier, cyclon, gozar, nylon, or all")
		ratiosF  = fs.String("ratios", "0.2,0.4,0.6,0.8,1.0", "comma-separated public ratios ω to sweep")
		nodes    = fs.Int("nodes", 200, "total population per run")
		seeds    = fs.Int("seeds", 3, "seeds per grid point (1, 2, ...)")
		seedBase = fs.Int64("seed", 1, "first seed")
		rounds   = fs.Int("rounds", 0, "trace length in gossip rounds (0 = default 200)")
		warmup   = fs.Int("warmup", 0, "warmup rounds before tracing (0 = default 10)")
		window   = fs.Int("window", 0, "sliding-window width in rounds (0 = rounds/4)")
		alpha    = fs.Float64("alpha", 0.01, "significance level for all verdicts")
		loss     = fs.Float64("loss", 0, "packet-loss probability")
		canary   = fs.Bool("canary", false, "run croupier's biased canary selector; exit non-zero unless every run is rejected")
		parallel = fs.Int("parallel", 0, "worker goroutines; 0 = all cores, 1 = sequential (outputs are identical either way)")
		shards   = fs.Int("shards", 1, "kernel shards per simulated world; 0 or 1 = sequential (verdicts are identical at any count)")
		outDir   = fs.String("out", "results/randcheck", "directory for TSV/JSON output")
		verbose  = fs.Bool("v", false, "print one progress line per finished run to stderr")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit, after a GC")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: croupier-randcheck [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	stop, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return fmt.Errorf("start profile: %w", err)
	}
	defer func() {
		if perr := stop(); err == nil && perr != nil {
			err = fmt.Errorf("write profile: %w", perr)
		}
	}()

	kinds, err := parseKinds(*kindF, *canary)
	if err != nil {
		return err
	}
	ratios, err := parseRatios(*ratiosF)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}

	sweep := randcheck.Sweep{
		Kinds:  kinds,
		Ratios: ratios,
		Seeds:  seedList(*seedBase, *seeds),
		Nodes:  *nodes,
		Base: randcheck.Config{
			WarmupRounds: *warmup,
			TraceRounds:  *rounds,
			Window:       *window,
			Alpha:        *alpha,
			Loss:         *loss,
			Canary:       *canary,
			Shards:       *shards,
		},
		Workers: *parallel,
	}
	total := len(kinds) * len(ratios) * *seeds
	if *verbose {
		start := time.Now()
		sweep.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "randcheck: %d/%d runs (%.1fs)\n", done, total, time.Since(start).Seconds())
		}
	}
	fmt.Printf("randcheck: %d runs (%d kinds × %d ratios × %d seeds, %d nodes)\n",
		total, len(kinds), len(ratios), *seeds, *nodes)

	reports, err := sweep.Run()
	if err != nil {
		return err
	}
	aggs := randcheck.Aggregates(reports)
	if err := writeOutputs(*outDir, reports, aggs); err != nil {
		return err
	}

	failures := 0
	for _, a := range aggs {
		verdict := "PASS"
		if a.PassFrac < 1 {
			verdict = fmt.Sprintf("PASS %d/%d", int(a.PassFrac*float64(a.Seeds)+0.5), a.Seeds)
		}
		if a.PassFrac == 0 {
			verdict = "FAIL"
		}
		fmt.Printf("  %-9s ω=%.2f  partner_min_p=%-10.3g sample_min_p=%-10.3g class_bias=%.3f  %s\n",
			a.Protocol, a.Ratio, a.PartnerMinP, a.SampleMinP, a.WorstClassBias, verdict)
	}
	for _, r := range reports {
		if !r.Pass {
			failures++
		}
	}

	if *canary {
		// Inverted criterion: the battery proves its power by rejecting
		// every single biased run.
		for _, r := range reports {
			if r.Partner.Pass {
				return fmt.Errorf("canary NOT rejected (%s ω=%.2f seed %d, p=%g): the battery lost its statistical power",
					r.Protocol, r.Ratio, r.Seed, r.Partner.PValue)
			}
		}
		fmt.Printf("canary: all %d biased runs rejected at α=%g — battery power confirmed\n", len(reports), *alpha)
		return nil
	}
	fmt.Printf("randcheck: %d/%d runs passed the full battery (results in %s)\n", len(reports)-failures, len(reports), *outDir)
	return nil
}

// parseKinds resolves the -kind flag; the canary selector exists only
// for croupier, so -canary narrows the default.
func parseKinds(s string, canary bool) ([]world.Kind, error) {
	all := []world.Kind{world.KindCroupier, world.KindCyclon, world.KindGozar, world.KindNylon}
	if s == "all" {
		if canary {
			return []world.Kind{world.KindCroupier}, nil
		}
		return all, nil
	}
	for _, k := range all {
		if k.String() == s {
			if canary && k != world.KindCroupier {
				return nil, fmt.Errorf("-canary only applies to croupier, not %s", s)
			}
			return []world.Kind{k}, nil
		}
	}
	return nil, fmt.Errorf("unknown kind %q (croupier, cyclon, gozar, nylon, all)", s)
}

func parseRatios(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r <= 0 || r > 1 {
			return nil, fmt.Errorf("bad ratio %q (want values in (0, 1])", part)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no ratios given")
	}
	return out, nil
}

func seedList(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

func writeOutputs(dir string, reports []*randcheck.Report, aggs []randcheck.Aggregate) error {
	write := func(name string, fn func(*os.File) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		return f.Close()
	}
	if err := write("randcheck.tsv", func(f *os.File) error { return randcheck.WriteTSV(f, reports) }); err != nil {
		return err
	}
	if err := write("randcheck.json", func(f *os.File) error { return randcheck.WriteJSON(f, reports) }); err != nil {
		return err
	}
	return write("randcheck-agg.tsv", func(f *os.File) error { return randcheck.WriteAggregateTSV(f, aggs) })
}

// startProfiles begins a CPU profile into cpuFile and returns the
// function that ends it and writes a heap profile, taken after a GC,
// into memFile. An empty name skips that profile.
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memFile == "" {
			return nil
		}
		f, err := os.Create(memFile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
