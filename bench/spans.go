package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run. The tree is workload →
// phase → call into a layer; every span of one run shares the workload
// id. Times are nanoseconds since the tracer started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for the root
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site. It is safe
// for concurrent use: udp_serve's client goroutines record into it.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, spans: make([]span, 0, 4096)}
}

// begin opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-measured span (udp_serve's sampled round trips).
func (t *tracer) record(parent int, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Name: name, Start: s, End: s + d.Nanoseconds()})
	t.mu.Unlock()
}

// spanGroup strips the per-call suffix of a span name ("world.RunUntil#37"
// → "world.RunUntil", "scenario.Run{partition,gozar}" → "scenario.Run").
func spanGroup(name string) string {
	if i := strings.IndexAny(name, "#{"); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes folds spans by group: a span's self time is its duration
// minus the part its children cover.
func selfTimes(spans []span) map[string]float64 {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[spanGroup(s.Name)] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	SelfMS   map[string]float64 `json:"self_ms_by_span_group"`
	Counters map[string]uint64  `json:"counter_deltas,omitempty"`
}

// write stores the spans, their self-time fold and the registry counter
// deltas as DIR/trace-<workload>.json and returns the path.
func (t *tracer) write(dir string, seed int64, counters map[string]uint64) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	b, err := json.Marshal(traceFile{Workload: t.workload, Seed: seed, Spans: spans, SelfMS: selfTimes(spans), Counters: counters})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
