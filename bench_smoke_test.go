// The benchmark is a module of its own (bench/go.mod) compiled against
// this module's internal packages, so `go test ./...` here does not see
// it: an internal API change that breaks bench/ would otherwise surface
// only in the benchmark pipeline. This test builds it against the
// working tree and, unless -short, runs every workload at smoke size.
package repro_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestBenchmarkBuildsAndSmokes(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "bench")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir = "bench"
	// No network, and nothing written into bench/: the module has no
	// dependency but this repository.
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("bench/ does not build against the working tree: %v\n%s", err, out)
	}
	if testing.Short() {
		return
	}
	// -seconds shortens each measured phase; the checks and the
	// fingerprints cover the frozen part of a workload, which always
	// runs whole.
	out, err := exec.Command(bin, "-smoke", "-workload", "all", "-seconds", "2", "-out", filepath.Join(tmp, "out")).CombinedOutput()
	if err != nil {
		t.Fatalf("bench -smoke -workload all: %v\n%s", err, out)
	}
	fingerprint := map[string]string{}
	checks := 0
	workload := ""
	header := regexp.MustCompile(`^== (\S+) `)
	verdict := regexp.MustCompile(`^attempted=\d+ failed=(\d+) fingerprint=(\S+)`)
	for _, line := range strings.Split(string(out), "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			workload = m[1]
		} else if strings.HasPrefix(line, "check ") {
			checks++
			if !strings.HasPrefix(line, "check ok ") {
				t.Errorf("%s: %s", workload, line)
			}
		} else if m := verdict.FindStringSubmatch(line); m != nil {
			fingerprint[workload] = m[2]
			if m[1] != "0" {
				t.Errorf("%s: %s operations failed", workload, m[1])
			}
		}
	}
	if len(fingerprint) != 4 || checks == 0 {
		t.Fatalf("ran %d workloads with %d checks, want 4 workloads:\n%s", len(fingerprint), checks, out)
	}
	if seq, sharded := fingerprint["steady_seq"], fingerprint["steady_sharded"]; seq != sharded {
		t.Errorf("steady_sharded fingerprint %s differs from steady_seq %s", sharded, seq)
	}
}
