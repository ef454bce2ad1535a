package world

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/croupier"
	"repro/internal/exchange"
	"repro/internal/latency"
)

// shardFingerprint runs one eventful world — mixed joins, NAT-type
// identification, packet loss, replacement churn, a partition and a
// heal — and serialises everything externally observable: the overlay
// adjacency at every probe, per-node traffic counters, network
// aggregates, croupier estimates and the full selection trace. The
// sharded kernel's contract is that this string is byte-identical at
// every shard count.
func shardFingerprint(t *testing.T, kind Kind, shards int, skipNatID bool) string {
	t.Helper()
	trace := exchange.NewTrace(0)
	w, err := New(Config{
		Kind:           kind,
		Seed:           11,
		Shards:         shards,
		Loss:           0.02,
		SkipNatID:      skipNatID,
		SelectionTrace: trace,
	})
	if err != nil {
		t.Fatalf("New(shards=%d): %v", shards, err)
	}
	w.MixedPoissonJoins(0, 10, 30, 10*time.Millisecond)
	w.ReplacementChurn(12*time.Second, 18*time.Second, 2*time.Second, 0.05)

	var b strings.Builder
	probe := func() {
		fmt.Fprintf(&b, "t=%v ratio=%.6f fired=%d pending=%d delivered=%d dropped=%d trace=%d\n",
			w.Sched.Now(), w.ActualRatio(), w.Kernel().Fired(), w.Kernel().Pending(),
			w.Net.Delivered(), w.Net.Dropped(), trace.Len())
		for _, n := range w.Nodes() {
			if !n.Alive() || n.Proto == nil {
				continue
			}
			tr := w.Net.TrafficFor(n.ID)
			fmt.Fprintf(&b, "%d[%d/%d/%d/%d]:", n.ID, tr.MsgsSent, tr.MsgsRecv, tr.BytesSent, tr.BytesRecv)
			for _, d := range n.Proto.Neighbors() {
				fmt.Fprintf(&b, " %d", d.ID)
			}
			if c, ok := n.Proto.(*croupier.Node); ok {
				if e, ok := c.Estimate(); ok {
					fmt.Fprintf(&b, " est=%.9f", e)
				}
			}
			b.WriteByte('\n')
		}
	}
	w.RunUntil(8 * time.Second)
	probe()
	w.Partition(0.3)
	w.RunUntil(14 * time.Second)
	probe()
	w.Heal()
	w.RunUntil(22 * time.Second)
	probe()
	for _, ev := range trace.Events() {
		fmt.Fprintf(&b, "s %d->%d\n", ev.Selector, ev.Selected)
	}
	return b.String()
}

// TestShardedEqualsSequential pins the parallel kernel's golden
// property: for a fixed seed, a world executed on N shards produces
// byte-identical results to the sequential (one-shard) reference, for
// all four protocols, through the NAT-identification join path and the
// fast path alike. One subtest per protocol, named after it, so a
// single system's sharded world can run alone under the race detector
// (-run 'TestShardedEqualsSequential/nylon').
func TestShardedEqualsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world simulation sweep; run without -short")
	}
	for _, kind := range []Kind{KindCroupier, KindCyclon, KindGozar, KindNylon} {
		t.Run(kind.String(), func(t *testing.T) {
			for _, skip := range []bool{true, false} {
				ref := shardFingerprint(t, kind, 1, skip)
				if ref == "" {
					t.Fatalf("%v: empty fingerprint", kind)
				}
				for _, shards := range []int{2, 3, 4} {
					got := shardFingerprint(t, kind, shards, skip)
					if got != ref {
						t.Errorf("%v (skipNatID=%v): %d-shard run diverges from sequential\nfirst difference near byte %d",
							kind, skip, shards, firstDiff(ref, got))
					}
				}
			}
		})
	}
}

// firstDiff returns the index of the first differing byte, for
// diagnostics.
func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestShardedRequiresBoundedLatency pins the configuration contract:
// more than one shard needs a latency model that proves a positive
// delay floor (the kernel's lookahead).
func TestShardedRequiresBoundedLatency(t *testing.T) {
	type flat struct{ latency.Model }
	base := latency.NewKingLike(3)
	if _, err := New(Config{Kind: KindCroupier, Seed: 3, Shards: 4, Latency: flat{base}}); err == nil {
		t.Fatal("4 shards with an unbounded latency model built without error")
	}
	if _, err := New(Config{Kind: KindCroupier, Seed: 3, Shards: 1, Latency: flat{base}}); err != nil {
		t.Fatalf("1 shard with an unbounded latency model must work: %v", err)
	}
}
