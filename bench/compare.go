package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadResults reads every result file in dir, in file-name order.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-seed*-trace*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// verdict of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound to two sets of values: regressed when
// b's median is worse than a's by more than the bound, unresolved when
// either set's own run-to-run spread is wider than the bound (the runs
// cannot tell), ok otherwise. worse is the signed share by which b is
// worse (negative = better).
func judge(d metricDef, a, b []float64) (verdict string, worse, spreadA, spreadB float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
	}
	spreadA, spreadB = spread(a), spread(b)
	switch {
	case spreadA > d.Bound || spreadB > d.Bound:
		verdict = verdictUnresolved
	case worse > d.Bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return verdict, worse, spreadA, spreadB
}

// compareDirs applies the end-to-end bounds to the untraced results of
// two directories, one row per (metric, workload), and checks that runs
// of the same workload, seed and size computed the same fingerprint. It
// reports false when any row regressed or a fingerprint differs;
// unresolved rows are shown but do not fail the comparison.
func compareDirs(w io.Writer, dirA, dirB string) (bool, error) {
	setA, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	setB, err := loadResults(dirB)
	if err != nil {
		return false, err
	}
	if len(setA) == 0 || len(setB) == 0 {
		return false, fmt.Errorf("no result files in %s or %s", dirA, dirB)
	}
	values := func(set []*result, workload, metric string) []float64 {
		var out []float64
		for _, r := range set {
			if r.Workload == workload && !r.Trace && r.Correct {
				out = append(out, r.Metrics[metric].Value)
			}
		}
		return out
	}
	ok := true
	fmt.Fprintf(w, "%-15s %-14s %-10s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "verdict", "median A", "median B", "worse", "spreadA", "spreadB", "bound")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			a, b := values(setA, wl, d.Name), values(setB, wl, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			verdict, worse, sa, sb := judge(d, a, b)
			if verdict == verdictRegressed {
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-14s %-10s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  (n=%d,%d)\n",
				wl, d.Name, verdict, median(a), median(b), 100*worse, 100*sa, 100*sb, 100*d.Bound, len(a), len(b))
		}
	}

	// Fingerprints: a run is a function of its workload, seed and sizes.
	// steady_sharded must reproduce steady_seq, so the two share a key.
	key := func(r *result) string {
		wl := r.Workload
		if wl == wlSteadySeq || wl == wlSteadySharded {
			wl = "steady_*"
		}
		return fmt.Sprintf("%s seed=%d smoke=%v", wl, r.Seed, r.Smoke)
	}
	prints := map[string]map[string]bool{}
	for _, r := range append(append([]*result(nil), setA...), setB...) {
		if r.Fingerprint == "" {
			continue
		}
		if prints[key(r)] == nil {
			prints[key(r)] = map[string]bool{}
		}
		prints[key(r)][r.Fingerprint] = true
	}
	keys := make([]string, 0, len(prints))
	for k := range prints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if len(prints[k]) == 1 {
			continue
		}
		ok = false
		var fps []string
		for fp := range prints[k] {
			fps = append(fps, fp)
		}
		sort.Strings(fps)
		fmt.Fprintf(w, "fingerprint MISMATCH %s: %s\n", k, strings.Join(fps, " vs "))
	}
	if ok {
		fmt.Fprintf(w, "fingerprints agree on %d (workload, seed) pairs\n", len(keys))
	}
	return ok, nil
}
