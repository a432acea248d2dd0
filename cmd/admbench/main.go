// Command admbench measures sustained admission throughput — in memory
// and durable, on one shared tree and on shard fleets — at several
// client concurrency levels, and writes the results as JSON so CI can
// track the performance trajectory across commits.
//
// Usage:
//
//	admbench [-out BENCH_admission.json] [-arrivals N] [-servers 128|512|2048]
//	         [-goroutines 1,4,8] [-shards 1,2,4] [-durable=false] [-seed N]
//	         [-enforce-out BENCH_enforce.json] [-enforce-tenants 8,32,128,512]
//	         [-enforce-dirty 0.01,0.1,1]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -enforce-out the tool additionally benchmarks the enforcement
// control loop: for each (-enforce-tenants fleet size, -enforce-dirty
// redeclare fraction) pair it admits that many tenants through an
// enforcement-enabled service, then times control periods in which a
// rotating window of that fraction of the fleet redeclares fresh
// demand matrices — measuring the incremental stepper's throughput and
// cold-convergence latency, emitted as a second JSON report.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run
// (CPU for the whole run, heap at exit) for feeding `go tool pprof`.
//
// For each shard count in -shards and each goroutine count G the tool
// runs the workload through the in-memory service (mode "locked", the
// name the committed baselines key their rows on: each shard's
// place.Admitter behind the public guarantee.Service). With
// -durable (on by default) each single-shard level additionally runs
// against a write-ahead log in a temp directory (mode "durable"),
// exercising the WAL group commit; the cell reports how many fsyncs
// the run paid. Every cell also records the heap cost per admission
// decision, and the report closes with a per-mode
// scaling-efficiency summary (throughput at the top concurrency level
// over throughput single-threaded).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"cloudmirror/guarantee"
	"cloudmirror/internal/sim"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/workload"
)

// result is one (mode, shards, goroutines) measurement cell of the
// report.
type result struct {
	Mode             string  `json:"mode"`
	Shards           int     `json:"shards"`
	Goroutines       int     `json:"goroutines"`
	Attempts         int     `json:"attempts"`
	Admitted         int     `json:"admitted"`
	Rejected         int     `json:"rejected"`
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
	AttemptsPerSec   float64 `json:"attempts_per_sec"`
	AdmissionsPerSec float64 `json:"admissions_per_sec"`
	// AllocsPerAdmit and BytesPerAdmit track the heap cost of one
	// admission decision; benchdiff gates them upward (allocation
	// regressions fail like throughput regressions do).
	AllocsPerAdmit float64 `json:"allocs_per_admit"`
	BytesPerAdmit  float64 `json:"bytes_per_admit"`
	// Fsyncs is the WAL fsync count of a durable cell (0 elsewhere):
	// group commit keeps it below the admission count once concurrent
	// clients coalesce their flushes.
	Fsyncs uint64 `json:"fsyncs,omitempty"`
}

// report is the BENCH_admission.json schema.
type report struct {
	Benchmark string   `json:"benchmark"`
	Unit      string   `json:"unit"`
	Servers   int      `json:"servers"`
	Arrivals  int      `json:"arrivals"`
	Seed      int64    `json:"seed"`
	Results   []result `json:"results"`
	// ScalingEfficiency maps each single-shard mode to the ratio of its
	// admissions/sec at the highest measured goroutine count over the
	// count at 1 goroutine — 1.0 means admission throughput holds up
	// under concurrency, below 1 means contention eats it.
	ScalingEfficiency map[string]float64 `json:"scaling_efficiency"`
}

// enforceResult is one (fleet size, dirty fraction) cell of the
// enforcement benchmark. Field order and types mirror
// sim.EnforceBenchCell exactly so the conversion stays a direct cast.
type enforceResult struct {
	Tenants            int     `json:"tenants"`
	Pairs              int     `json:"pairs"`
	DirtyFraction      float64 `json:"dirty_fraction"`
	Steps              int     `json:"steps"`
	StepsPerSec        float64 `json:"steps_per_sec"`
	MsPerStep          float64 `json:"ms_per_step"`
	ConvergeIterations int     `json:"converge_iterations"`
	ConvergeMs         float64 `json:"converge_ms"`
}

// enforceReport is the BENCH_enforce.json schema.
type enforceReport struct {
	Benchmark string          `json:"benchmark"`
	Unit      string          `json:"unit"`
	Servers   int             `json:"servers"`
	Seed      int64           `json:"seed"`
	Results   []enforceResult `json:"results"`
}

func main() {
	out := flag.String("out", "BENCH_admission.json", "output file (\"-\" for stdout)")
	arrivals := flag.Int("arrivals", 4000, "admission attempts per measurement cell")
	servers := flag.Int("servers", 128, "datacenter size: 128, 512, or 2048 servers")
	gor := flag.String("goroutines", "1,4,8", "comma-separated concurrency levels")
	shardsList := flag.String("shards", "1,4", "comma-separated shard-fleet sizes to sweep")
	durable := flag.Bool("durable", true, "add durable-mode cells (WAL group commit in a temp dir) at each concurrency level")
	seed := flag.Int64("seed", 1, "workload seed")
	enfOut := flag.String("enforce-out", "", "also benchmark the enforcement control loop into this file (\"-\" for stdout)")
	enfTenants := flag.String("enforce-tenants", "8,32,128,512", "comma-separated tenant counts for the enforcement benchmark")
	enfServers := flag.Int("enforce-servers", 2048, "datacenter size for the enforcement benchmark: 128, 512, or 2048 servers (512 tenants need 2048)")
	enfDirty := flag.String("enforce-dirty", "0.01,0.1,1", "comma-separated per-step demand-redeclare fractions for the enforcement benchmark")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	spec, err := specFor(*servers, "-servers")
	if err != nil {
		fatal(err)
	}
	levels, err := intList(*gor, "-goroutines")
	if err != nil {
		fatal(err)
	}
	shardCounts, err := intList(*shardsList, "-shards")
	if err != nil {
		fatal(err)
	}

	pool := workload.BingLike(*seed)
	workload.ScaleToBmax(pool, 800)
	algorithm, err := guarantee.AlgorithmByName("cm")
	if err != nil {
		fatal(err)
	}
	cfg := sim.Config{
		Spec:          spec,
		NewPlacer:     algorithm.NewPlacer,
		AlgorithmName: "cm",
		Pool:          pool,
		Arrivals:      *arrivals,
		Seed:          *seed,
	}

	rep := report{
		Benchmark: "admission-throughput",
		Unit:      "admissions/sec",
		Servers:   *servers,
		Arrivals:  *arrivals,
		Seed:      *seed,
	}
	for _, shards := range shardCounts {
		for _, g := range levels {
			locked, err := sim.ShardedThroughput(cfg, shards, "", g)
			if err != nil {
				fatal(err)
			}
			rep.Results = append(rep.Results, cell("locked", g, locked))
			fmt.Fprintf(os.Stderr, "admbench: shards=%d goroutines=%d locked %.0f adm/s\n",
				shards, g, rep.Results[len(rep.Results)-1].AdmissionsPerSec)
			if !*durable || shards != 1 {
				continue
			}
			dir, err := os.MkdirTemp("", "admbench-wal-")
			if err != nil {
				fatal(err)
			}
			dur, err := sim.DurableThroughput(cfg, 1, "", g, dir)
			os.RemoveAll(dir)
			if err != nil {
				fatal(err)
			}
			rep.Results = append(rep.Results, cell("durable", g, dur))
			fmt.Fprintf(os.Stderr, "admbench: goroutines=%d durable %.0f adm/s (%d fsyncs / %d attempts)\n",
				g, rep.Results[len(rep.Results)-1].AdmissionsPerSec, dur.Fsyncs, dur.Attempts)
		}
	}
	rep.ScalingEfficiency = scalingEfficiency(rep.Results)
	for _, mode := range []string{"locked", "durable"} {
		if eff, ok := rep.ScalingEfficiency[mode]; ok {
			fmt.Fprintf(os.Stderr, "admbench: scaling efficiency %s %.2f\n", mode, eff)
		}
	}

	writeJSON(*out, rep)

	if *enfOut == "" {
		return
	}
	var counts []int
	for _, f := range strings.Split(*enfTenants, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("invalid -enforce-tenants entry %q: need positive integers", f))
		}
		counts = append(counts, n)
	}
	var fracs []float64
	for _, f := range strings.Split(*enfDirty, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || x <= 0 || x > 1 {
			fatal(fmt.Errorf("invalid -enforce-dirty entry %q: need fractions in (0,1]", f))
		}
		fracs = append(fracs, x)
	}
	enfSpec, err := specFor(*enfServers, "-enforce-servers")
	if err != nil {
		fatal(err)
	}
	cells, err := sim.EnforceBench(sim.EnforceBenchConfig{
		Spec:           enfSpec,
		Pool:           pool,
		TenantCounts:   counts,
		DirtyFractions: fracs,
		Seed:           *seed,
	})
	if err != nil {
		fatal(err)
	}
	erep := enforceReport{
		Benchmark: "enforcement-control-loop",
		Unit:      "steps/sec",
		Servers:   *enfServers,
		Seed:      *seed,
	}
	for _, c := range cells {
		erep.Results = append(erep.Results, enforceResult(c))
		fmt.Fprintf(os.Stderr, "admbench: enforce tenants=%d pairs=%d dirty=%g %.0f steps/s (%.2f ms/step), converge %d iters in %.2f ms\n",
			c.Tenants, c.Pairs, c.DirtyFraction, c.StepsPerSec, c.MsPerStep, c.ConvergeIterations, c.ConvergeMs)
	}
	writeJSON(*enfOut, erep)
}

// writeJSON marshals a report to the file ("-" for stdout).
func writeJSON(out string, v any) {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// cell flattens one throughput result into a report entry. The
// headline admissions/sec counts only admitted tenants; attempts/sec
// (admissions + rejections decided per second) rides along so a
// rejection-heavy run is distinguishable from a slow one.
func cell(mode string, goroutines int, r *sim.ThroughputResult) result {
	c := result{
		Mode:           mode,
		Shards:         r.Shards,
		Goroutines:     goroutines,
		Attempts:       r.Attempts,
		Admitted:       r.Admitted,
		Rejected:       r.Rejected,
		ElapsedSeconds: r.Elapsed.Seconds(),
		AttemptsPerSec: r.AttemptsPerSec,
		AllocsPerAdmit: r.AllocsPerAdmit,
		BytesPerAdmit:  r.BytesPerAdmit,
		Fsyncs:         r.Fsyncs,
	}
	if s := r.Elapsed.Seconds(); s > 0 {
		c.AdmissionsPerSec = float64(r.Admitted) / s
	}
	return c
}

// scalingEfficiency derives, per single-shard mode, the ratio of
// admissions/sec at the highest measured goroutine count to the rate
// at 1 goroutine. Modes missing either endpoint are omitted.
func scalingEfficiency(results []result) map[string]float64 {
	base := map[string]float64{}
	top := map[string]float64{}
	topG := map[string]int{}
	for _, r := range results {
		if r.Shards != 1 {
			continue
		}
		if r.Goroutines == 1 {
			base[r.Mode] = r.AdmissionsPerSec
		}
		if r.Goroutines >= topG[r.Mode] {
			topG[r.Mode] = r.Goroutines
			top[r.Mode] = r.AdmissionsPerSec
		}
	}
	eff := map[string]float64{}
	for mode, b := range base {
		if t, ok := top[mode]; ok && topG[mode] > 1 && b > 0 {
			eff[mode] = t / b
		}
	}
	return eff
}

// intList parses a comma-separated list of positive integers.
func intList(s, flagName string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid %s entry %q: need positive integers", flagName, f)
		}
		out = append(out, n)
	}
	return out, nil
}

// specFor maps a server count to its named topology spec.
func specFor(n int, flagName string) (topology.Spec, error) {
	switch n {
	case 128:
		return topology.SmallSpec(), nil
	case 512:
		return topology.MediumSpec(), nil
	case 2048:
		return topology.PaperSpec(), nil
	}
	return topology.Spec{}, fmt.Errorf("unsupported %s %d: valid values are 128, 512, 2048", flagName, n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "admbench:", err)
	os.Exit(1)
}
