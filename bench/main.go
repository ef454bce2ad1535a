// Command bench is the repository's one benchmark: four named workloads,
// end-to-end metrics measured with tracing off, and a traced run that
// breaks each workload down by layer. README.md in this directory says
// how to run it and what every metric means; BENCHMARK.json at the
// repository root is the contract the driver checks it against.
//
// Every layer is measured from outside: by timing calls into its public
// functions, by reading the always-on counters, and by a CPU profile
// started from this program.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"

	"repro/internal/metrics"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// runEnv is what a workload measures with: its settings and, on a traced
// run, the span recorder, the metrics registry handed to the program and
// the CPU profile of the measured phase.
type runEnv struct {
	cfg  runConfig
	tr   *tracer           // nil when untraced
	root int               // the workload span
	reg  *metrics.Registry // nil when untraced
	prof bytes.Buffer
}

// startProfile begins the CPU profile of the measured phase (traced runs
// only); the returned stop folds it into per-layer shares.
func (e *runEnv) startProfile() (stop func() map[string]float64) {
	if !e.cfg.trace {
		return func() map[string]float64 { return nil }
	}
	e.prof.Reset()
	if err := pprof.StartCPUProfile(&e.prof); err != nil {
		fmt.Fprintln(os.Stderr, "bench: cpu profile unavailable:", err)
		return func() map[string]float64 { return nil }
	}
	return func() map[string]float64 {
		pprof.StopCPUProfile()
		leaf, err := leafSamples(e.prof.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: cpu profile unreadable:", err)
			return nil
		}
		return cpuShares(leaf)
	}
}

// counterDeltas snapshots the registry now and returns a function giving
// the counters that grew since (nil when untraced).
func (e *runEnv) counterDeltas() func() map[string]uint64 {
	if e.reg == nil {
		return func() map[string]uint64 { return nil }
	}
	before := e.reg.Snapshot()
	return func() map[string]uint64 { return e.reg.Snapshot().CounterDeltas(before) }
}

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// metricValue is a reported number; N is the sample count behind a
// percentile or median (0 for plain measurements).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is everything one run reports. Metrics holds the end-to-end
// metrics (of the traced run too, where they only serve
// trace_overhead_frac); Layers the per-layer ones, traced runs only.
type result struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Smoke       bool                   `json:"smoke"`
	Host        hostInfo               `json:"host"`
	Sizes       map[string]any         `json:"sizes"`
	Correct     bool                   `json:"correct"`
	Checks      []check                `json:"checks"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	Fingerprint string                 `json:"fingerprint"`
	Metrics     map[string]metricValue `json:"end_to_end"`
	Layers      map[string]metricValue `json:"per_layer,omitempty"`
	// Detail carries the workload's own numbers under the names the
	// issue used (join_wave_s, figs_s, est_err_avg, fail_frac, ...).
	Detail   map[string]float64 `json:"detail"`
	Counters map[string]uint64  `json:"counter_deltas,omitempty"`
	Files    []string           `json:"files,omitempty"`
}

func newResult(env *runEnv, host hostInfo) *result {
	return &result{
		Workload: env.cfg.workload, Seed: env.cfg.seed, Seconds: env.cfg.seconds,
		Trace: env.cfg.trace, Smoke: env.cfg.smoke, Host: host,
		Sizes: map[string]any{}, Correct: true,
		Metrics: map[string]metricValue{}, Detail: map[string]float64{},
	}
}

// check records an output check; a failed one makes the run incorrect.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
	}
}

// set records an end-to-end metric by name; the unit comes from the table.
func (r *result) set(name string, v float64, n int) {
	for _, d := range endToEnd {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("bench: unknown end-to-end metric " + name)
}

// layer records a per-layer metric by name.
func (r *result) layer(name string, v float64) {
	if r.Layers == nil {
		r.Layers = map[string]metricValue{}
	}
	for _, d := range perLayer {
		if d.Name == name {
			r.Layers[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: unknown per-layer metric " + name)
}

// contractLine is the last line of a run's standard output: exactly the
// keys the driver reads, with every end-to-end metric on an untraced run
// and every per-layer metric on a traced one.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, have := endToEnd, r.Metrics
	if r.Trace {
		defs, have = perLayer, r.Layers
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		ms[d.Name] = mv{Value: have[d.Name].Value, Unit: d.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, attempted, r.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(b)
}

// manifestJSON renders BENCHMARK.json: the command, the workloads with
// their reasons, and every metric's name, unit, direction and bound.
func manifestJSON() string {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, name := range workloadNames {
		m.Workloads = append(m.Workloads, workload{name, workloadWhy[name]})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, unbounded{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always encode
	}
	return string(b)
}

// runWorkload runs one workload under cfg and returns its result.
func runWorkload(cfg runConfig, host hostInfo) (*result, error) {
	env := &runEnv{cfg: cfg}
	if cfg.trace {
		env.tr = newTracer(cfg.workload)
		env.reg = metrics.NewRegistry()
		env.root = env.tr.begin(0, "workload:"+cfg.workload)
	}
	res := newResult(env, host)
	var err error
	switch cfg.workload {
	case wlSteadySeq:
		err = runSteady(env, res, 1)
	case wlSteadySharded:
		err = runSteady(env, res, 2)
	case wlPaperSuite:
		err = runSuite(env, res)
	case wlUDPServe:
		err = runUDP(env, res)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v and all)", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		res.layer("trace_overhead_frac", traceOverhead(cfg, res))
		runProbes(env, res)
		env.tr.end(env.root)
		path, err := env.tr.write(cfg.outDir, cfg.seed, res.Counters)
		if err != nil {
			return nil, err
		}
		res.Files = append(res.Files, path)
		if env.prof.Len() > 0 {
			p := filepath.Join(cfg.outDir, "cpu-"+cfg.workload+".pprof")
			if err := os.WriteFile(p, env.prof.Bytes(), 0o644); err != nil {
				return nil, fmt.Errorf("write profile: %w", err)
			}
			res.Files = append(res.Files, p)
		}
	}
	return res, nil
}

// traceOverhead compares the traced run's wall_s with the latest
// untraced result of the same workload, seed and size stored in the
// output directory; 0 when there is none.
func traceOverhead(cfg runConfig, traced *result) float64 {
	set, err := loadResults(cfg.outDir)
	if err != nil {
		return 0
	}
	var base float64
	for _, r := range set { // sorted by file name = run order
		if !r.Trace && r.Workload == cfg.workload && r.Seed == cfg.seed && r.Smoke == cfg.smoke && r.Seconds == cfg.seconds {
			base = r.Metrics["wall_s"].Value
		}
	}
	if base <= 0 {
		return 0
	}
	return (traced.Metrics["wall_s"].Value - base) / base
}

// save writes the result as the next free <workload>-seed<N>-trace<T>-<k>.json
// in dir, so a directory accumulates a result set for -compare.
func (r *result) save(dir string) (string, error) {
	t := 0
	if r.Trace {
		t = 1
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	for k := 0; ; k++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%03d.json", r.Workload, r.Seed, t, k))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return "", fmt.Errorf("save result: %w", err)
		}
		_, werr := f.Write(append(b, '\n'))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return "", fmt.Errorf("save result: %w", werr)
		}
		return path, nil
	}
}

// print renders the human-readable report: every metric by name with
// its unit, the checks and the fingerprint.
func (r *result) print() {
	fmt.Printf("== %s seed=%d seconds=%g trace=%v smoke=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Smoke)
	fmt.Printf("host: %d cores, %s, %s, GOMAXPROCS=%d, load1=%.2f\n", r.Host.Cores, r.Host.CPUModel, r.Host.GoVersion, r.Host.GOMAXPROCS, r.Host.Load1)
	fmt.Printf("note: %s\n", r.Host.Note)
	label := "end to end"
	if r.Trace {
		label = "end to end (traced run — compare only the untraced numbers)"
	}
	fmt.Println(label + ":")
	for _, d := range endToEnd {
		m := r.Metrics[d.Name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("  %-28s %14.6g %s%s\n", d.Name, m.Value, d.Unit, n)
	}
	keys := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("detail:")
	for _, k := range keys {
		fmt.Printf("  %-28s %14.6g\n", k, r.Detail[k])
	}
	if r.Trace {
		fmt.Println("per layer:")
		for _, d := range perLayer {
			fmt.Printf("  %-28s %14.6g %s\n", d.Name, r.Layers[d.Name].Value, d.Unit)
		}
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("check %s %-22s %s\n", verdict, c.Name, c.Detail)
	}
	fmt.Printf("attempted=%d failed=%d fingerprint=%s\n", r.Attempted, r.Failed, r.Fingerprint)
	for _, f := range r.Files {
		fmt.Println("wrote", f)
	}
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of the measured phase (see README.md for what each workload does with it)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: spans, counter deltas, CPU profile, layer probes; prints the per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for tests; results are not comparable")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for result, trace and profile files")
	var compare, manifest bool
	flag.BoolVar(&compare, "compare", false, "compare two result directories: bench -compare A B")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json from the metric tables and exit")
	flag.Parse()
	if manifest {
		fmt.Println(manifestJSON())
		return
	}
	cfg.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A B")
			os.Exit(2)
		}
		ok, err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments", flag.Args())
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	host := readHost()
	warnIfLoaded(host)
	allCorrect := true
	fingerprints := map[string]string{}
	for i, name := range names {
		if i > 0 {
			resetPeakRSS()
		}
		c := cfg
		c.workload = name
		res, err := runWorkload(c, host)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fingerprints[name] = res.Fingerprint
		if seq, ok := fingerprints[wlSteadySeq]; ok && name == wlSteadySharded {
			res.check("sharded_equals_seq", seq == res.Fingerprint, "steady_seq %s, steady_sharded %s", seq, res.Fingerprint)
		}
		p, err := res.save(cfg.outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		res.Files = append(res.Files, p)
		res.print()
		fmt.Println(res.contractLine())
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}
