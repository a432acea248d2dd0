package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
)

// genBytes encodes the first n ops of a generator.
func genBytes(g *opGen, n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = g.next().appendBinary(b)
	}
	return b
}

// TestOpSequenceDeterministic: the same seed generates a byte-identical
// op sequence for every phase shape, and another seed a different one.
func TestOpSequenceDeterministic(t *testing.T) {
	pool := len(tenantPool())
	shapes := map[string]func(seed int64) *opGen{
		"serve-open":   func(seed int64) *opGen { return newOpGen(seed, 1, serveMix, pool, 1, serveRate) },
		"serve-closed": func(seed int64) *opGen { return newOpGen(seed, 2, serveMix, pool, 1, 0) },
		"wal":          func(seed int64) *opGen { return newOpGen(seed, 1, durableMix, pool, durableBatch, 0) },
	}
	for name, gen := range shapes {
		a, b := genBytes(gen(7), 5000), genBytes(gen(7), 5000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different sequences", name)
		}
		if bytes.Equal(a, genBytes(gen(8), 5000)) {
			t.Errorf("%s: seeds 7 and 8 generated the same sequence", name)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkEmitted demands that the emitted metrics are exactly the
// declared ones, with the declared units.
func checkEmitted(t *testing.T, what string, declared map[string]string, got map[string]metric) {
	t.Helper()
	for name, unit := range declared {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: emitted metric %s not declared", what, name)
		}
	}
}

// TestMetricsDeclared: the workloads and metric names the benchmark
// knows are the ones BENCHMARK.json declares.
func TestMetricsDeclared(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if known := slices.Sorted(maps.Keys(workloads)); !slices.Equal(names, known) {
		t.Errorf("declared workloads %v, benchmark runs %v", names, known)
	}
	e2e := endToEnd(1, 1, 1, 1, 1, 1)
	decl := make(map[string]string)
	for _, m := range b.EndToEnd {
		decl[m.Name] = m.Unit
	}
	checkEmitted(t, "end_to_end", decl, e2e)
	layers := make(map[string]metric)
	for _, name := range perLayerNames {
		layers[name] = metric{0, unitOf(name)}
	}
	decl = make(map[string]string)
	for _, m := range b.PerLayer {
		decl[m.Name] = m.Unit
	}
	checkEmitted(t, "per_layer", decl, layers)
}

// TestSmoke runs every workload, traced, at a tiny size: every output
// check passes, nothing fails, and every declared metric is emitted.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			out, err := run(config{workload: name, seed: 3, seconds: 0.5, trace: true, workdir: t.TempDir(), small: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(out.violations) > 0 || out.failed > 0 {
				t.Fatalf("%d failed ops, checks broken: %v", out.failed, out.violations)
			}
			if out.attempted == 0 {
				t.Fatal("no operations attempted")
			}
			decl := make(map[string]string)
			for _, m := range b.PerLayer {
				decl[m.Name] = m.Unit
			}
			checkEmitted(t, "per_layer", decl, out.perLayer)
			decl = make(map[string]string)
			for _, m := range b.EndToEnd {
				decl[m.Name] = m.Unit
			}
			checkEmitted(t, "end_to_end", decl, out.endToEnd)
			for _, m := range []string{"op_ms", "aux_p50_ms", "ops_per_s", "cpu_ms_per_op", "accept_ratio"} {
				if out.endToEnd[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, out.endToEnd[m].Value)
				}
			}
		})
	}
}
