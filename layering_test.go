// The layer map of docs/ARCHITECTURE.md as a test: one table assigning
// every internal package a layer, checked against the packages' real
// non-test imports (go/build, nothing is executed).
package repro_test

import (
	"go/build"
	"os"
	"path"
	"strings"
	"testing"
)

const internalPrefix = "repro/internal/"

// crossCutting marks the vocabulary packages — identities, descriptors,
// wire sizes, instruments, statistics. Any package may import them;
// they import only each other.
const crossCutting = 0

// layerOf is the layer map. A package may import cross-cutting packages
// and packages of a strictly lower layer — never its own layer, so the
// four protocols cannot reach each other, and neither can the two
// drivers.
var layerOf = map[string]int{
	"addr": crossCutting, "view": crossCutting, "wire": crossCutting, "intern": crossCutting,
	"metrics": crossCutting, "stats": crossCutting, "trace": crossCutting, "graph": crossCutting,
	"runner": crossCutting, "ratelimit": crossCutting,

	// 1 simulation kernel and physical models
	"sim": 1, "nat": 1, "latency": 1,
	// 2 planes and join-time services: simulated network | shuffle engine | NAT identification | directory
	"simnet": 2, "exchange": 2, "natid": 2, "bootstrap": 2,
	// 3 the protocol contract
	"pss": 3,
	// 4 protocols
	"croupier": 4, "cyclon": 4, "gozar": 4, "nylon": 4,
	// 5 drivers, the owners of time: simulated | real UDP
	"world": 5, "deploy": 5,
	// 6 orchestration
	"experiment": 6, "scenario": 6, "randcheck": 6,
	// 7 real-kernel lab
	"testlab": 7,
}

// simulatorFree lists what must build without the simulator: the
// deployed binaries, and every package a deployed binary is made of.
var simulatorFree = []string{
	"cmd/croupier-node", "cmd/natprobe",
	"internal/croupier", "internal/cyclon", "internal/gozar", "internal/nylon",
	"internal/pss", "internal/exchange", "internal/deploy", "internal/natid",
}

var simulatorOnly = []string{"sim", "simnet", "nat", "latency", "world"}

// internalImports returns the internal packages dir imports directly
// from non-test files, without the prefix.
func internalImports(t *testing.T, dir string) []string {
	t.Helper()
	pkg, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	var out []string
	for _, imp := range pkg.Imports {
		if name, ok := strings.CutPrefix(imp, internalPrefix); ok {
			out = append(out, name)
		}
	}
	return out
}

func TestLayering(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		seen[name] = true
		layer, ok := layerOf[name]
		if !ok {
			t.Errorf("internal/%s has no layer: add it to layerOf and to docs/ARCHITECTURE.md", name)
			continue
		}
		for _, imp := range internalImports(t, path.Join("internal", name)) {
			if il := layerOf[imp]; il != crossCutting && il >= layer {
				t.Errorf("internal/%s (layer %d) imports internal/%s (layer %d): dependencies only point downward",
					name, layer, imp, il)
			}
		}
	}
	for name := range layerOf {
		if !seen[name] {
			t.Errorf("layerOf lists internal/%s, which does not exist", name)
		}
	}
}

func TestDeployedCodeLinksNoSimulator(t *testing.T) {
	for _, root := range simulatorFree {
		// Walk the transitive internal imports of root.
		reached := map[string]bool{}
		todo := internalImports(t, root)
		for len(todo) > 0 {
			name := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			if reached[name] {
				continue
			}
			reached[name] = true
			todo = append(todo, internalImports(t, path.Join("internal", name))...)
		}
		var bad []string
		for _, name := range simulatorOnly {
			if reached[name] {
				bad = append(bad, name)
			}
		}
		if len(bad) > 0 {
			t.Errorf("%s links simulator packages %v", root, bad)
		}
	}
}
