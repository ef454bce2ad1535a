// Command croupier-scenario runs declarative adverse-network scenarios
// against any of the four peer-sampling systems — the general workload
// runner beyond the paper's fixed figures.
//
// Usage:
//
//	croupier-scenario -list
//	croupier-scenario [flags] <scenario>|all
//	croupier-scenario [flags] -file my-scenario.json
//
// Each run writes <out>/<scenario>-<kind>.tsv and .json and prints a
// summary. Runs are deterministic: the same scenario, kind, seed and
// scale produce byte-identical outputs. -scale shrinks populations for
// quick runs (-scale 0.1 runs the 1000-node library scenarios with 100
// nodes); -kind all compares the four systems head-to-head on one
// timeline; -parallel 0 fans the independent (scenario, kind) runs
// across every core without changing any output byte.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/world"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "croupier-scenario:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("croupier-scenario", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list the scenario library and exit")
		file     = fs.String("file", "", "run a scenario from a JSON file instead of the library")
		kindF    = fs.String("kind", "croupier", "protocol: croupier, cyclon, gozar, nylon, or all")
		scale    = fs.Float64("scale", 1.0, "population scale factor (1.0 = as declared)")
		seed     = fs.Int64("seed", 1, "simulation seed")
		loss     = fs.Float64("loss", 0, "base packet-loss probability")
		natid    = fs.Bool("natid", false, "run NAT-type identification at every join (slower)")
		probe    = fs.Int("probe", 0, "override the probe period in rounds (0 = scenario default)")
		parallel = fs.Int("parallel", 1, "worker goroutines for the (scenario, kind) fan-out; 0 = all cores, 1 = sequential (outputs are identical either way)")
		shards   = fs.Int("shards", 1, "kernel shards per simulated world; 0 or 1 = sequential (outputs are identical at any count)")
		outDir   = fs.String("out", "results/scenarios", "directory for TSV/JSON output")
		verbose  = fs.Bool("v", false, "print one progress line per finished (scenario, kind) job to stderr")
		httpAddr = fs.String("http", "", "serve a live dashboard, SSE stream and Prometheus scrape on this address; forces sequential runs and keeps serving after the sweep finishes")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit, after a GC")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: croupier-scenario -list\n")
		fmt.Fprintf(fs.Output(), "       croupier-scenario [flags] <scenario>|all\n")
		fmt.Fprintf(fs.Output(), "       croupier-scenario [flags] -file scenario.json\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
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

	if *list {
		for _, name := range scenario.Names() {
			sc, err := scenario.Lookup(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %d nodes, %d rounds, %d events\n", name, sc.Publics+sc.Privates, sc.Rounds, len(sc.Events))
			fmt.Printf("             %s\n", sc.Description)
		}
		return nil
	}

	kinds, err := parseKinds(*kindF)
	if err != nil {
		return err
	}
	scenarios, err := selectScenarios(fs.Args(), *file)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}

	// One job per (scenario, kind) pair. Each run is an independent
	// world, so the fan-out parallelises freely; results come back in
	// job order and are written and summarised deterministically.
	type job struct {
		sc   scenario.Scenario
		kind world.Kind
	}
	type outcome struct {
		res     *scenario.Result
		elapsed time.Duration
	}
	var jobs []job
	for _, sc := range scenarios {
		if *probe > 0 {
			sc.ProbeEvery = *probe
		}
		for _, kind := range kinds {
			jobs = append(jobs, job{sc: sc, kind: kind})
		}
	}
	// The dashboard streams one job at a time into a single registry, so
	// -http forces the fan-out sequential (outputs are identical anyway).
	var dash *dashServer
	if *httpAddr != "" {
		dash = newDashServer()
		ln, err := dash.serve(*httpAddr)
		if err != nil {
			return err
		}
		fmt.Printf("# dashboard on http://%v/ (SSE /events, Prometheus /metrics)\n", ln.Addr())
		*parallel = 1
	}
	workers := *parallel
	if workers == 0 {
		workers = -1 // runner: ≤0 (other than the flag's 1) = GOMAXPROCS
	}
	var progress func(done, total int)
	if *verbose {
		// One line per finished run, so long multi-scenario sweeps show
		// liveness and remaining work, with an ETA extrapolated from
		// completed-job durations. Progress order is completion order;
		// the written results stay in deterministic job order.
		sweepStart := time.Now()
		var eta *runner.ETA
		progress = func(done, total int) {
			if eta == nil {
				eta = runner.NewETASince(total, sweepStart)
			}
			line := fmt.Sprintf("# job %d/%d done (%v elapsed",
				done, total, time.Since(sweepStart).Round(time.Second))
			if rem, ok := eta.Estimate(done); ok && done < total {
				line += fmt.Sprintf(", ~%v left", rem.Round(time.Second))
			}
			fmt.Fprintln(os.Stderr, line+")")
		}
	}
	outcomes, err := runner.Map(runner.Options{Workers: workers, Progress: progress}, jobs, func(j job) (outcome, error) {
		start := time.Now()
		rc := scenario.RunConfig{
			Kind:     j.kind,
			Seed:     *seed,
			Scale:    *scale,
			BaseLoss: *loss,
			RunNatID: *natid,
			Shards:   *shards,
		}
		var stopPump chan struct{}
		var pumpDone chan struct{}
		if dash != nil {
			// Fresh registry per job: the scrape and the stream both
			// describe exactly one run at a time.
			reg := metrics.NewRegistry()
			rc.Registry = reg
			rc.Observer = func(s scenario.Sample) {
				dash.broadcast("sample", sampleEvent{Scenario: j.sc.Name, Kind: j.kind.String(), Sample: s})
			}
			dash.broadcast("job", jobStart{
				Scenario: j.sc.Name, Kind: j.kind.String(),
				Publics: j.sc.Publics, Privates: j.sc.Privates, Rounds: j.sc.Rounds,
			})
			dash.setRegistry(reg)
			stopPump = make(chan struct{})
			pumpDone = make(chan struct{})
			dash.startMetricsPump(j.sc.Name, j.kind.String(), time.Second, stopPump, pumpDone)
		}
		res, err := scenario.Run(j.sc, rc)
		if dash != nil {
			// The registry stays attached after the run so late scrapes
			// still see the final totals; the next job replaces it.
			close(stopPump)
			<-pumpDone
		}
		if err != nil {
			return outcome{}, err
		}
		return outcome{res: res, elapsed: time.Since(start)}, nil
	})
	if err != nil {
		return err
	}
	for i, oc := range outcomes {
		base := filepath.Join(*outDir, fmt.Sprintf("%s-%s", jobs[i].sc.Name, jobs[i].kind))
		if err := writeResult(oc.res, base); err != nil {
			return err
		}
		printSummary(oc.res, base, oc.elapsed)
	}
	if dash != nil {
		dash.broadcast("done", struct{}{})
		fmt.Println("# all runs complete; dashboard still serving (interrupt to exit)")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	return nil
}

// parseKinds resolves the -kind flag.
func parseKinds(s string) ([]world.Kind, error) {
	all := []world.Kind{world.KindCroupier, world.KindCyclon, world.KindGozar, world.KindNylon}
	if s == "all" {
		return all, nil
	}
	for _, k := range all {
		if k.String() == s {
			return []world.Kind{k}, nil
		}
	}
	return nil, fmt.Errorf("unknown kind %q (croupier, cyclon, gozar, nylon, all)", s)
}

// selectScenarios resolves the positional args and -file into a run list.
func selectScenarios(args []string, file string) ([]scenario.Scenario, error) {
	if file != "" {
		if len(args) != 0 {
			return nil, fmt.Errorf("-file and a scenario name are mutually exclusive")
		}
		f, err := os.Open(file)
		if err != nil {
			return nil, fmt.Errorf("open scenario file: %w", err)
		}
		defer f.Close()
		sc, err := scenario.ParseJSON(f)
		if err != nil {
			return nil, err
		}
		return []scenario.Scenario{sc}, nil
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("exactly one scenario name (or 'all') required; see -list")
	}
	if args[0] == "all" {
		var out []scenario.Scenario
		for _, name := range scenario.Names() {
			sc, err := scenario.Lookup(name)
			if err != nil {
				return nil, err
			}
			out = append(out, sc)
		}
		return out, nil
	}
	sc, err := scenario.Lookup(args[0])
	if err != nil {
		return nil, err
	}
	return []scenario.Scenario{sc}, nil
}

// writeResult exports both formats next to each other.
func writeResult(res *scenario.Result, base string) error {
	for _, ext := range []string{".tsv", ".json"} {
		f, err := os.Create(base + ext)
		if err != nil {
			return fmt.Errorf("create %s: %w", base+ext, err)
		}
		if ext == ".tsv" {
			err = res.WriteTSV(f)
		} else {
			err = res.WriteJSON(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write %s: %w", base+ext, err)
		}
	}
	return nil
}

// printSummary renders the run's headline numbers.
func printSummary(res *scenario.Result, base string, elapsed time.Duration) {
	fmt.Printf("# %s/%s: %d rounds, %d probes in %v → %s.{tsv,json}\n",
		res.Scenario, res.Kind, res.Rounds, len(res.Samples), elapsed.Round(time.Millisecond), base)
	last := res.Samples[len(res.Samples)-1]
	fmt.Printf("  final: alive=%d ratio=%s ω̂-err(avg)=%s cluster=%s indeg(mean±std)=%s±%s traffic=%sB/node/s\n",
		last.Alive, fmtF(last.Ratio), fmtF(last.EstErrAvg), fmtF(last.ClusterFrac),
		fmtF(last.InDegMean), fmtF(last.InDegStd), fmtF(last.BytesPerNodeSec))
	for _, rec := range res.Recoveries {
		if rec.Rounds >= 0 {
			fmt.Printf("  recovery after %s@r%g: %g rounds (reconverged at r%g)\n",
				rec.Event, rec.AtRound, rec.Rounds, rec.RecoveredRound)
		} else {
			fmt.Printf("  recovery after %s@r%g: NOT reconverged by r%d\n", rec.Event, rec.AtRound, res.Rounds)
		}
	}
}

// fmtF renders a metric float compactly, keeping NaN readable.
func fmtF(f scenario.F) string {
	v := float64(f)
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.4g", v)
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
