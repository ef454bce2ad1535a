// Allocation guards for the protocol hot path: one gossip round across
// a warm 200-node deployment must stay within a small fixed allocation
// budget for every protocol. The exchange engine's pooled messages and
// records are what make these numbers hold; a pooling regression (a
// handler retaining a payload, a message never released, a new
// per-round allocation) shows up here immediately.
//
// The budgets are deliberately far above the measured steady state
// (croupier ≈ 20 allocs per simulated second at 200 nodes) but far
// below the pre-pooling cost (≈ 2600), so the guards are insensitive
// to Go-version noise while still catching any real regression.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/metrics"
	"repro/internal/nylon"
	"repro/internal/world"
)

// allocWorld builds a 200-node mixed deployment of the given protocol
// and warms it up long enough for views, pools, NAT tables and the
// estimate stores to reach steady state.
func allocWorld(tb testing.TB, kind world.Kind) *world.World {
	tb.Helper()
	w, err := world.New(world.Config{Kind: kind, Seed: 1, SkipNatID: true})
	if err != nil {
		tb.Fatal(err)
	}
	w.MixedPoissonJoins(0, 40, 160, 5*time.Millisecond)
	w.RunUntil(90 * time.Second)
	return w
}

// roundAllocs reports the average allocations of one full simulated
// second (one gossip round on every node, plus all deliveries).
func roundAllocs(tb testing.TB, kind world.Kind) float64 {
	tb.Helper()
	w := allocWorld(tb, kind)
	return testing.AllocsPerRun(10, func() {
		w.RunUntil(w.Sched.Now() + time.Second)
	})
}

func guardRoundAllocs(t *testing.T, kind world.Kind, budget float64) {
	t.Helper()
	got := roundAllocs(t, kind)
	t.Logf("%v: %.1f allocs per 200-node round (budget %.0f)", kind, got, budget)
	if got > budget {
		t.Errorf("%v round allocates %.1f objects, budget is %.0f — a pooling regression?", kind, got, budget)
	}
}

func TestCroupierRoundAllocs(t *testing.T) { guardRoundAllocs(t, world.KindCroupier, 200) }
func TestCyclonRoundAllocs(t *testing.T)   { guardRoundAllocs(t, world.KindCyclon, 200) }
func TestGozarRoundAllocs(t *testing.T)    { guardRoundAllocs(t, world.KindGozar, 200) }

// TestCroupierMetricsRoundAllocs pins the observability plane's core
// promise: a fully instrumented world (network, exchange engine and
// protocol counters all live) fits in the same per-round allocation
// budget as an uninstrumented one, because every hot-path instrument is
// a nil check plus an atomic add.
func TestCroupierMetricsRoundAllocs(t *testing.T) {
	w, err := world.New(world.Config{
		Kind: world.KindCroupier, Seed: 1, SkipNatID: true,
		Registry: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.MixedPoissonJoins(0, 40, 160, 5*time.Millisecond)
	w.RunUntil(90 * time.Second)
	got := testing.AllocsPerRun(10, func() {
		w.RunUntil(w.Sched.Now() + time.Second)
	})
	t.Logf("croupier+metrics: %.1f allocs per 200-node round (budget 200)", got)
	if got > 200 {
		t.Errorf("instrumented croupier round allocates %.1f objects, budget is 200 — metrics on the hot path?", got)
	}
}

// TestCroupierTraceRoundAllocs pins the selection-trace hook's cost
// contract from both sides. The plain protocol guards above already
// prove the disabled side — a world built without a SelectionTrace
// leaves every engine's trace pointer nil, so those budgets measure the
// hook's default state. This test proves the enabled side: a world with
// a live, recording trace of sufficient capacity fits the *same*
// per-round budget, because recording a selection is one append into
// pre-sized backing storage. The randcheck harness leans on this — a
// measured world behaves (and allocates) like an unmeasured one.
func TestCroupierTraceRoundAllocs(t *testing.T) {
	trace := exchange.NewTrace(4096) // 11 measured rounds × 200 selections fit
	trace.Disable()
	w, err := world.New(world.Config{
		Kind: world.KindCroupier, Seed: 1, SkipNatID: true,
		SelectionTrace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.MixedPoissonJoins(0, 40, 160, 5*time.Millisecond)
	w.RunUntil(90 * time.Second)
	trace.Enable()
	got := testing.AllocsPerRun(10, func() {
		w.RunUntil(w.Sched.Now() + time.Second)
	})
	t.Logf("croupier+trace: %.1f allocs per 200-node round (budget 200), %d selections recorded", got, trace.Len())
	if got > 200 {
		t.Errorf("traced croupier round allocates %.1f objects, budget is 200 — recording is no longer a plain append?", got)
	}
	if trace.Len() == 0 {
		t.Error("trace recorded nothing — the hook is not wired")
	}
	if trace.Len() > 4096 {
		t.Errorf("trace grew past its capacity hint (%d events): the measurement itself reallocated", trace.Len())
	}
}

// Nylon's budget is higher because the protocol's state genuinely keeps
// growing: every pair that ever completed an exchange stays in each
// other's RVP sets (the periodic keep-alives refresh both sides
// forever), so new rvp records, routing entries and keep-alive bursts
// accumulate toward a full mesh for thousands of rounds — the unbounded
// keep-alive overhead the paper criticises Nylon for. The measurement
// at round ~90 is 563 allocs and falls as the mesh saturates; the
// budget is that measurement plus 25 %, and the pre-pooling cost was
// ≈ 3000.
const nylonRoundBudget = 704

func TestNylonRoundAllocs(t *testing.T) { guardRoundAllocs(t, world.KindNylon, nylonRoundBudget) }

// TestNylonBoundedRVPRoundAllocs pins the config-gated MaxRVPs mode:
// with the rendezvous set LRU-bounded, the mesh stops growing, every
// node's RVP count respects the bound, and a warm round stays within
// the same allocation budget (the bound removes the growth, not the
// pooling).
func TestNylonBoundedRVPRoundAllocs(t *testing.T) {
	cfg := nylon.DefaultConfig()
	cfg.MaxRVPs = 20
	w, err := world.New(world.Config{Kind: world.KindNylon, Seed: 1, SkipNatID: true, Nylon: cfg})
	if err != nil {
		t.Fatal(err)
	}
	w.MixedPoissonJoins(0, 40, 160, 5*time.Millisecond)
	w.RunUntil(90 * time.Second)
	got := testing.AllocsPerRun(10, func() {
		w.RunUntil(w.Sched.Now() + time.Second)
	})
	t.Logf("nylon (MaxRVPs=20): %.1f allocs per 200-node round", got)
	if got > nylonRoundBudget {
		t.Errorf("bounded-RVP nylon round allocates %.1f objects, budget is %d", got, nylonRoundBudget)
	}
	for _, n := range w.AliveNodes() {
		ny, ok := n.Proto.(*nylon.Node)
		if !ok {
			continue
		}
		if c := ny.RVPCount(); c > 20 {
			t.Fatalf("node %v holds %d RVPs, bound is 20", n.ID, c)
		}
	}
}
