// Command croupier-sim regenerates the paper's evaluation figures.
//
// Usage:
//
//	croupier-sim [flags] <experiment>
//
// Experiments: fig1 fig2 fig3 fig4 fig5 fig6a fig6b fig6c fig7a fig7b all
//
// Each experiment writes a TSV table under -out and prints an ASCII
// rendition of the figure. -scale shrinks node counts for quick runs
// (e.g. -scale 0.1 runs Fig 1 with 500 instead of 5000 nodes); paper
// scale (-scale 1 -seeds 5) reproduces the published setup exactly but
// takes tens of minutes for the estimation figures. -parallel 0 fans
// the independent (variant, seed) simulations across every core; the
// merged figures are byte-identical to a sequential run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiment"
	"repro/internal/runner"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "croupier-sim:", err)
		os.Exit(1)
	}
}

type tsvWriter interface {
	WriteTSV(io.Writer) error
}

type renderer interface {
	Render() string
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("croupier-sim", flag.ContinueOnError)
	var (
		scaleF   = fs.Float64("scale", 1.0, "node-count scale factor (1.0 = paper scale)")
		seeds    = fs.Int("seeds", 5, "number of runs to average (paper: 5)")
		rounds   = fs.Int("rounds", 0, "override measured rounds (0 = paper value)")
		parallel = fs.Int("parallel", 1, "worker goroutines for the (variant, seed) fan-out; 0 = all cores, 1 = sequential (results are identical either way)")
		shards   = fs.Int("shards", 1, "kernel shards per simulated world; 0 or 1 = sequential (figures are identical at any count)")
		outDir   = fs.String("out", "results", "directory for TSV output")
		noPlot   = fs.Bool("no-plot", false, "suppress terminal plots")
		verbose  = fs.Bool("v", false, "print one progress line per finished (variant, seed) job to stderr")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit, after a GC")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: croupier-sim [flags] <experiment>\n")
		fmt.Fprintf(fs.Output(), "experiments: fig1 fig2 fig3 fig4 fig5 fig6a fig6b fig6c fig7a fig7b all\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one experiment required")
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

	workers := *parallel
	if workers == 0 {
		workers = -1 // experiment.Scale: negative = GOMAXPROCS
	}
	scale := experiment.Scale{Factor: *scaleF, Seeds: *seeds, Rounds: *rounds, Workers: workers, Shards: *shards}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}

	names := []string{fs.Arg(0)}
	if fs.Arg(0) == "all" {
		names = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b"}
	}
	for _, name := range names {
		start := time.Now()
		if *verbose {
			// One line per finished simulation job, so multi-hour
			// paper-scale sweeps show liveness and remaining work, with
			// an ETA extrapolated from completed-job durations.
			name, start := name, time.Now()
			var eta *runner.ETA
			scale.Progress = func(done, total int) {
				if eta == nil {
					eta = runner.NewETASince(total, start)
				}
				line := fmt.Sprintf("# %s: job %d/%d done (%v elapsed",
					name, done, total, time.Since(start).Round(time.Second))
				if rem, ok := eta.Estimate(done); ok && done < total {
					line += fmt.Sprintf(", ~%v left", rem.Round(time.Second))
				}
				fmt.Fprintln(os.Stderr, line+")")
			}
		}
		res, err := runOne(name, scale)
		if err != nil {
			return err
		}
		path := filepath.Join(*outDir, name+".tsv")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		if err := res.WriteTSV(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
		fmt.Printf("# %s finished in %v, table written to %s\n", name, time.Since(start).Round(time.Millisecond), path)
		if !*noPlot {
			if r, ok := res.(renderer); ok {
				fmt.Println(r.Render())
			}
		}
	}
	return nil
}

// runOne dispatches one experiment by figure name.
func runOne(name string, s experiment.Scale) (tsvWriter, error) {
	switch name {
	case "fig1":
		cfg := experiment.NewFig1Config()
		cfg.Scale = s
		res, err := experiment.RunFig1(cfg)
		return res, err
	case "fig2":
		cfg := experiment.NewFig2Config()
		cfg.Scale = s
		res, err := experiment.RunFig2(cfg)
		return res, err
	case "fig3":
		cfg := experiment.NewFig3Config()
		cfg.Scale = s
		res, err := experiment.RunFig3(cfg)
		return res, err
	case "fig4":
		cfg := experiment.NewFig4Config()
		cfg.Scale = s
		res, err := experiment.RunFig4(cfg)
		return res, err
	case "fig5":
		cfg := experiment.NewFig5Config()
		cfg.Scale = s
		res, err := experiment.RunFig5(cfg)
		return res, err
	case "fig6a":
		cfg := experiment.NewFig6aConfig()
		cfg.Scale = s
		res, err := experiment.RunFig6a(cfg)
		return res, err
	case "fig6b":
		cfg := experiment.NewFig6bcConfig()
		cfg.Scale = s
		res, err := experiment.RunFig6b(cfg)
		return res, err
	case "fig6c":
		cfg := experiment.NewFig6bcConfig()
		cfg.Scale = s
		res, err := experiment.RunFig6c(cfg)
		return res, err
	case "fig7a":
		cfg := experiment.NewFig7aConfig()
		cfg.Scale = s
		res, err := experiment.RunFig7a(cfg)
		return res, err
	case "fig7b":
		cfg := experiment.NewFig7bConfig()
		cfg.Scale = s
		res, err := experiment.RunFig7b(cfg)
		return res, err
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
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
