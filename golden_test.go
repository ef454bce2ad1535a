// The cross-commit golden test. The determinism tests beside it compare
// two executions of one build (parallel vs sequential, sharded vs not),
// so a refactor that changes simulated results passes them all. This
// one compares against digests committed in testdata/: one small
// library scenario per protocol, hashed over its exported TSV and JSON
// bytes. A change under the fingerprints-unchanged contract must leave
// the file alone; a deliberate behaviour change regenerates it with
//
//	go test -run TestScenarioDigests -update .
//
// and says so in its description.
package repro_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/scenario_digests.txt from this build")

const digestFile = "testdata/scenario_digests.txt"

// TestScenarioDigests runs mapexpiry — the library scenario that leans
// hardest on relaying and hole punching — at 100 nodes for each system,
// on one and on two kernel shards, and requires every run to hash to
// the committed digest of its system.
func TestScenarioDigests(t *testing.T) {
	var got strings.Builder
	for _, kind := range allKinds {
		var first string
		for _, shards := range []int{1, 2} {
			out, err := scenarioBytes("mapexpiry", scenario.RunConfig{Kind: kind, Seed: 7, Scale: 0.1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			sum := fmt.Sprintf("%x", sha256.Sum256(out))
			if first == "" {
				first = sum
			} else if sum != first {
				t.Errorf("%v: %d shards hash to %s, one shard to %s", kind, shards, sum, first)
			}
		}
		fmt.Fprintf(&got, "%v\t%s\n", kind, first)
	}
	if *update {
		if err := os.WriteFile(digestFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("simulated results changed since %s was generated:\n got:\n%swant:\n%s", digestFile, got.String(), want)
	}
}
