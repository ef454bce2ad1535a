// The cross-commit golden test. The determinism tests beside it compare
// two executions of one build (parallel vs sequential, sharded vs not),
// so a refactor that changes simulated results passes them all. This
// one compares against digests committed in testdata/: one small
// library scenario per protocol, hashed over its exported TSV and JSON
// bytes, plus the Nylon paths that scenario does not reach. A change
// under the fingerprints-unchanged contract must leave the files alone;
// a deliberate behaviour change regenerates them with
//
//	go test -run 'TestScenarioDigests|TestNylonDigests' -update .
//
// and says so in its description.
package repro_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/nylon"
	"repro/internal/scenario"
	"repro/internal/world"
)

var update = flag.Bool("update", false, "rewrite the testdata/*_digests.txt files from this build")

const (
	digestFile      = "testdata/scenario_digests.txt"
	nylonDigestFile = "testdata/nylon_digests.txt"
)

// checkDigests compares got with the committed file, or rewrites the
// file under -update.
func checkDigests(t *testing.T, file, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("simulated results changed since %s was generated:\n got:\n%swant:\n%s", file, got, want)
	}
}

// scenarioDigest hashes one scenario run on one and on two kernel
// shards, failing the test if the two disagree.
func scenarioDigest(t *testing.T, name string, cfg scenario.RunConfig) string {
	t.Helper()
	var first string
	for _, shards := range []int{1, 2} {
		cfg.Shards = shards
		out, err := scenarioBytes(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256(out))
		if first == "" {
			first = sum
		} else if sum != first {
			t.Errorf("%s %v: %d shards hash to %s, one shard to %s", name, cfg.Kind, shards, sum, first)
		}
	}
	return first
}

// TestScenarioDigests runs mapexpiry — the library scenario that leans
// hardest on relaying and hole punching — at 100 nodes for each system,
// on one and on two kernel shards, and requires every run to hash to
// the committed digest of its system.
func TestScenarioDigests(t *testing.T) {
	var got strings.Builder
	for _, kind := range allKinds {
		sum := scenarioDigest(t, "mapexpiry", scenario.RunConfig{Kind: kind, Seed: 7, Scale: 0.1})
		fmt.Fprintf(&got, "%v\t%s\n", kind, sum)
	}
	checkDigests(t, digestFile, got.String())
}

// TestNylonDigests pins the Nylon bookkeeping paths mapexpiry does not
// reach: churnstorm's crashes and replacements (RVPs whose peer died
// expire by TTL, mid-chain hops vanish), and a MaxRVPs-bounded world in
// which every node evicts continuously. Both run on one and on two
// kernel shards.
func TestNylonDigests(t *testing.T) {
	var got strings.Builder
	sum := scenarioDigest(t, "churnstorm", scenario.RunConfig{Kind: world.KindNylon, Seed: 7, Scale: 0.1})
	fmt.Fprintf(&got, "churnstorm\t%s\n", sum)
	one := boundedNylonDigest(t, 1)
	if two := boundedNylonDigest(t, 2); two != one {
		t.Errorf("MaxRVPs world: 2 shards hash to %s, one shard to %s", two, one)
	}
	fmt.Fprintf(&got, "maxrvps8\t%s\n", one)
	checkDigests(t, nylonDigestFile, got.String())
}

// boundedNylonDigest runs a 100-node Nylon world with MaxRVPs = 8 and
// replacement churn for 60 rounds, hashing the overlay every 10 rounds
// and, at the end, the network counters, every node's traffic and RVP
// count, and the registry's counters (RVP establishments and teardowns
// among them).
func boundedNylonDigest(t *testing.T, shards int) string {
	t.Helper()
	cfg := nylon.DefaultConfig()
	cfg.MaxRVPs = 8
	reg := metrics.NewRegistry()
	w, err := world.New(world.Config{
		Kind: world.KindNylon, Seed: 7, Shards: shards, SkipNatID: true,
		Nylon: cfg, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.MixedPoissonJoins(0, 20, 80, 10*time.Millisecond)
	w.ReplacementChurn(20*time.Second, 40*time.Second, 2*time.Second, 0.05)

	h := sha256.New()
	var o graph.Overlay
	for round := 10; round <= 60; round += 10 {
		w.RunUntil(time.Duration(round) * time.Second)
		w.SnapshotOverlay(&o, false)
		for i, id := range o.IDs {
			fmt.Fprintf(h, "%d:%v\n", id, o.Adj[i])
		}
	}
	fmt.Fprintf(h, "delivered=%d dropped=%d\n", w.Net.Delivered(), w.Net.Dropped())
	for _, n := range w.AliveNodes() {
		fmt.Fprintf(h, "%d %+v", n.ID, w.Net.TrafficFor(n.ID))
		if ny, ok := n.Proto.(*nylon.Node); ok {
			fmt.Fprintf(h, " rvps=%d relayed=%d", ny.RVPCount(), ny.RelayedMessages())
		}
		fmt.Fprintln(h)
	}
	counters := reg.Snapshot().Counters
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d\n", name, counters[name])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
