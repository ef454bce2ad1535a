package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tailPercentile is the ten-samples-beyond rule: the highest percentile,
// from the usual ladder, that still has at least ten of n samples beyond
// it. ok is false when not even the median qualifies (n < 20).
func tailPercentile(n int) (q float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.8, 0.5} {
		if float64(n)*(1-q) >= 10-1e-9 { // 50*(1-0.8) is 9.999… in floating point
			return q, true
		}
	}
	return 0, false
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 0.5, true}, {49, 0.5, true}, {50, 0.8, true}, {99, 0.8, true},
		{100, 0.9, true}, {200, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-got) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond", c.n, got)
		}
	}
	// The frozen percentiles of the workloads obey the rule at their
	// smallest sample counts.
	if q, _ := tailPercentile(steadyFull.MinRounds); q < steadyTailQ {
		t.Errorf("steady tail p%v has fewer than ten of %d rounds beyond it", steadyTailQ*100, steadyFull.MinRounds)
	}
	if q, _ := tailPercentile(int(udpFull.UnitOps)); q < udpTailQ {
		t.Errorf("udp tail p%v has fewer than ten of %d round trips beyond it", udpTailQ*100, udpFull.UnitOps)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 12, 20], n=4) == [10.25, 11.5, 18.0].
	if got, want := spread([]float64{10, 11, 12, 20}), 7.75/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestLatHistQuantilesWithinOnePercent(t *testing.T) {
	var h, part latHist
	var exact []float64
	// A long-tailed set of durations from 10 ns to 100 ms.
	x := uint64(2463534242)
	for i := 0; i < 200000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ns := int64(10 * math.Pow(1e7, float64(x%1000000)/1e6))
		exact = append(exact, float64(ns))
		if i%2 == 0 {
			h.add(ns)
		} else {
			part.add(ns)
		}
	}
	h.merge(&part)
	if h.n != uint64(len(exact)) {
		t.Fatalf("n = %d, want %d", h.n, len(exact))
	}
	for _, q := range []float64{0.01, 0.5, 0.8, 0.99, 0.999} {
		got, want := h.quantile(q), quantile(exact, q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%v = %v, exact %v", q, got, want)
		}
	}
	var empty latHist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
}

// pb is a minimal protobuf encoder for building a canned profile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) uintField(num int, v uint64) { p.varint(uint64(num)<<3 | 0); p.varint(v) }
func (p *pb) bytesField(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}
func (p *pb) packed(num int, vs ...uint64) {
	var inner pb
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytesField(num, inner.Bytes())
}

func TestProfileFoldsLeafFramesByPackage(t *testing.T) {
	names := []string{"",
		"repro/internal/croupier.(*estimateStore).probe",
		"repro/internal/exchange.(*FreeList[go.shape.struct { repro/internal/view.Descriptor }]).Get",
		"runtime.mallocgc",
		"main.(*loadClient).loop",
		"repro/internal/scenario.Run",
		"repro/internal/croupier.(*Node).mergeEstimates",
	}
	var prof pb
	for i, n := range names {
		if i > 0 { // function id i, name at string index i
			var fn pb
			fn.uintField(1, uint64(i))
			fn.uintField(2, uint64(i))
			prof.bytesField(5, fn.Bytes())
		}
		prof.bytesField(6, []byte(n))
	}
	location := func(id uint64, fns ...uint64) {
		var loc pb
		loc.uintField(1, id)
		for _, f := range fns {
			var line pb
			line.uintField(1, f)
			line.uintField(2, 42)
			loc.bytesField(4, line.Bytes())
		}
		prof.bytesField(4, loc.Bytes())
	}
	for id := uint64(1); id <= 5; id++ {
		location(id, id)
	}
	location(6, 1, 6) // probe inlined into mergeEstimates: the leaf is probe
	sample := func(packedIDs bool, ns uint64, locs ...uint64) {
		var s pb
		if packedIDs {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.uintField(1, l)
			}
		}
		s.packed(2, 1, ns) // samples/count, cpu/nanoseconds
		prof.bytesField(2, s.Bytes())
	}
	sample(true, 30, 1, 5)  // croupier, called from scenario
	sample(false, 10, 6, 5) // croupier via the inlined frame
	sample(true, 20, 2, 1)  // exchange (generic receiver)
	sample(true, 25, 3, 2)  // runtime
	sample(true, 10, 4)     // the benchmark itself
	sample(true, 5, 5)      // a repo package outside the named layers

	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(prof.Bytes())
	zw.Close()
	for name, raw := range map[string][]byte{"gzip": zipped.Bytes(), "raw": prof.Bytes()} {
		leaf, err := leafSamples(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shares := cpuShares(leaf)
		want := map[string]float64{"croupier": 0.40, "exchange": 0.20, "runtime": 0.25, "other": 0.15}
		sum := 0.0
		for _, l := range cpuShareLayers {
			sum += shares[l]
			if math.Abs(shares[l]-want[l]) > 1e-9 {
				t.Errorf("%s: share[%s] = %v, want %v", name, l, shares[l], want[l])
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares sum to %v", name, sum)
		}
	}
	if _, err := leafSamples([]byte{0x12, 0x7f, 0x01}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "workload:x", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "phase:measure", Start: 10e6, End: 90e6},
		{ID: 3, Parent: 2, Name: "world.RunUntil#0", Start: 10e6, End: 40e6},
		{ID: 4, Parent: 2, Name: "world.RunUntil#1", Start: 40e6, End: 80e6},
		{ID: 5, Parent: 2, Name: "scenario.Run{partition,gozar}", Start: 80e6, End: 85e6},
	}
	got := selfTimes(spans)
	want := map[string]float64{"workload:x": 20, "phase:measure": 5, "world.RunUntil": 70, "scenario.Run": 5}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("self[%s] = %v ms, want %v", k, got[k], v)
		}
	}
}

func TestJudgeAppliesBoundAndSpread(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 1.005} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(10), steady(10.2), verdictOK},
		{"slower", lower, steady(10), steady(11.5), verdictRegressed},
		{"faster", lower, steady(10), steady(8), verdictOK},
		{"less throughput", higher, steady(100), steady(85), verdictRegressed},
		{"more throughput", higher, steady(100), steady(130), verdictOK},
		{"noisy", lower, []float64{8, 10, 12, 9, 13}, steady(10), verdictUnresolved},
	} {
		if got, _, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func smokeConfig(workload string, seed int64, trace bool, dir string) runConfig {
	return runConfig{workload: workload, seed: seed, seconds: 0.2, trace: trace, smoke: true, outDir: dir}
}

func TestFingerprintFollowsSeedNotShards(t *testing.T) {
	dir := t.TempDir()
	run := func(workload string, seed int64) string {
		t.Helper()
		res, err := runWorkload(smokeConfig(workload, seed, false, dir), hostInfo{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%s seed %d: checks failed: %+v", workload, seed, res.Checks)
		}
		return res.Fingerprint
	}
	a, again, other, sharded := run(wlSteadySeq, 1), run(wlSteadySeq, 1), run(wlSteadySeq, 2), run(wlSteadySharded, 1)
	if a != again {
		t.Errorf("equal seeds gave fingerprints %s and %s", a, again)
	}
	if a == other {
		t.Errorf("seeds 1 and 2 gave the same fingerprint %s", a)
	}
	if a != sharded {
		t.Errorf("steady_sharded fingerprint %s differs from steady_seq %s", sharded, a)
	}
}

// TestSmokeAllWorkloads is a traced pass of all four workloads at tiny
// sizes: every check passes, every metric of BENCHMARK.json is reported,
// the span and result files are written and -compare accepts the set
// against itself.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(smokeConfig(name, 3, trace, dir), readHost())
			if errors.Is(err, errNoLoopback) {
				t.Logf("%s skipped: %v", name, err)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%+v", name, trace, res.Correct, res.Attempted, res.Failed, res.Checks)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s trace=%v: end-to-end metric %s = %v, want > 0", name, trace, d.Name, v)
				}
			}
			var line struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
				t.Fatalf("%s: contract line: %v", name, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: contract line has %d metrics, want %d", name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: contract line lacks %s in %s", name, trace, d.Name, d.Unit)
				}
			}
			if trace {
				if _, err := os.Stat(dir + "/trace-" + name + ".json"); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				sum := 0.0
				for _, l := range cpuShareLayers {
					sum += res.Layers[l+".cpu_share"].Value
				}
				// A smoke phase can be too short for a single profile sample.
				if sum != 0 && math.Abs(sum-1) > 0.02 {
					t.Errorf("%s: cpu shares sum to %v", name, sum)
				}
			}
			if _, err := res.save(dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out strings.Builder
	ok, err := compareDirs(&out, dir, dir)
	if err != nil || !ok {
		t.Errorf("-compare of a set against itself: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("-compare of a set against itself regressed:\n%s", out.String())
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// tables in step, and the tables inside the contract's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := manifestJSON() + "\n"; got != string(file) {
		t.Errorf("BENCHMARK.json is out of date; regenerate with: go run . -manifest > ../BENCHMARK.json")
	}
	if len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(file))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloadNames) < 2 || len(workloadNames) > 8 {
		t.Errorf("%d workloads", len(workloadNames))
	}
	for _, w := range workloadNames {
		use(w)
		if why := workloadWhy[w]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w, len(why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setupBound, maxBound := 0.0, 0.0
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = math.Max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setupBound = d.Bound
			if d.Unit != "s" || d.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s needs the largest bound: has %v, largest is %v", setupBound, maxBound)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		use(d.Name)
	}
}
