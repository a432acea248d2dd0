// Command benchdiff compares two machine-readable benchmark reports
// (the BENCH_*.json files admbench emits) and prints the per-metric
// deltas, so a commit's perf trajectory is visible without external
// tooling (no jq, no spreadsheet).
//
// Usage:
//
//	benchdiff -old BENCH_admission.json -new BENCH_admission.new.json [-fail 0.3]
//
// Both files are flattened generically: every numeric leaf becomes a
// dotted path, and each path present in both files is reported as
// old -> new with the relative change. Array elements that carry
// identifying fields (mode/shards/goroutines for admission cells,
// tenants/dirty_fraction for enforcement cells) are addressed by those
// fields rather than by index, so a row deleted from or reordered in
// one report can never misalign the comparison of the others. With
// -fail F, any gated metric that regresses by more than the fraction F
// fails the run — the regression gate for `make bench-diff`. Gated
// metrics and their good directions: *per_sec and scaling_efficiency.*
// are higher-better (a drop regresses); *per_admit allocation costs
// are lower-better (a rise regresses). Timing noise on shared CI
// machines is real, so the default is report-only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"sort"
	"strings"
)

func main() {
	oldPath := flag.String("old", "", "baseline report (committed BENCH_*.json)")
	newPath := flag.String("new", "", "candidate report (freshly generated)")
	failOver := flag.Float64("fail", 0, "fail if any *per_sec metric regresses by more than this fraction (0 = report only)")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fatal(fmt.Errorf("both -old and -new are required"))
	}

	oldM, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	newM, err := load(*newPath)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("benchdiff %s -> %s\n", *oldPath, *newPath)
	worst, worstPath, err := compare(oldM, newM, os.Stdout)
	if err != nil {
		fatal(fmt.Errorf("%s vs %s: %w", *oldPath, *newPath, err))
	}
	if worstPath != "" {
		fmt.Printf("worst regression: %s (%.2f%%)\n", worstPath, worst*100)
	}
	if *failOver > 0 && worst > *failOver {
		fatal(fmt.Errorf("%s regressed %.2f%%, over the %.0f%% gate", worstPath, worst*100, *failOver*100))
	}
}

// compare prints every metric present in both flattened reports as
// old -> new with its relative change and returns the worst gated
// regression and its path.
func compare(oldM, newM map[string]float64, w io.Writer) (worst float64, worstPath string, err error) {
	var paths []string
	for p := range newM {
		if _, ok := oldM[p]; ok {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		return 0, "", fmt.Errorf("no common numeric metrics")
	}
	sort.Strings(paths)
	for _, p := range paths {
		o, n := oldM[p], newM[p]
		change := 0.0
		if o != 0 {
			change = (n - o) / o
		}
		fmt.Fprintf(w, "  %-60s %14.4g -> %14.4g  %+7.2f%%\n", p, o, n, change*100)
		// Only gated metrics count toward the regression verdict;
		// regression() orients each kind so positive means worse.
		if r := regression(p, change); r > worst {
			worst, worstPath = r, p
		}
	}
	return worst, worstPath, nil
}

// regression maps a metric's relative change to its regression
// magnitude (positive = worse), or 0 for ungated metrics. Throughput
// rates and scaling efficiency regress downward; per-admission
// allocation costs regress upward.
func regression(path string, change float64) float64 {
	switch {
	case strings.HasSuffix(path, "per_sec"), strings.Contains(path, "scaling_efficiency."):
		return -change
	case strings.HasSuffix(path, "per_admit"):
		return change
	}
	return 0
}

// load parses a JSON report and flattens its numeric leaves.
func load(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]float64)
	if err := flatten("", v, m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// rowKeyFields are the fields that identify a result row, in the order
// they appear in its key. A row's key is built from whichever of them
// it carries; rows with none of them fall back to their array index.
var rowKeyFields = []string{"mode", "shards", "goroutines", "tenants", "dirty_fraction"}

// rowKey names an array element by its identifying fields, e.g.
// "mode=locked/shards=1/goroutines=4". It reports false for elements
// that are not objects or carry no identifying field.
func rowKey(e any) (string, bool) {
	obj, ok := e.(map[string]any)
	if !ok {
		return "", false
	}
	var parts []string
	for _, f := range rowKeyFields {
		if v, ok := obj[f]; ok {
			parts = append(parts, fmt.Sprintf("%s=%v", f, v))
		}
	}
	return strings.Join(parts, "/"), len(parts) > 0
}

// flatten walks the decoded JSON, recording every numeric leaf under
// its dotted path. Keyed array elements are addressed by rowKey (their
// identifying fields are part of the path, not metrics); two elements
// of one array with the same key are an error, since either one could
// be compared against the other report's row.
func flatten(prefix string, v any, out map[string]float64) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			if err := flatten(p, x[k], out); err != nil {
				return err
			}
		}
	case []any:
		seen := make(map[string]bool, len(x))
		for i, e := range x {
			key, ok := rowKey(e)
			if !ok {
				if err := flatten(fmt.Sprintf("%s[%d]", prefix, i), e, out); err != nil {
					return err
				}
				continue
			}
			if seen[key] {
				return fmt.Errorf("%s: duplicate row %s", prefix, key)
			}
			seen[key] = true
			row := maps.Clone(e.(map[string]any))
			for _, f := range rowKeyFields {
				delete(row, f)
			}
			if err := flatten(fmt.Sprintf("%s[%s]", prefix, key), row, out); err != nil {
				return err
			}
		}
	case float64:
		out[prefix] = x
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
