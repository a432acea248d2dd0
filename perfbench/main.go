// Command perfbench is the repository's benchmark of record. It drives
// one workload through the public front doors of the guarantee
// package (Service, the HTTP handler cmd/bwd serves, Durability and
// Enforcement), checks every output, and prints the workload's
// end-to-end metrics (or, with -trace 1, its per-layer metrics) as the
// last line of standard output:
//
//	perfbench -workload serve-http -seed 1 -seconds 10 -trace 0
//
// The workloads and metrics are described in README.md and declared in
// BENCHMARK.json at the repository root; run it through run.sh, which
// builds it from the checkout's sources first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workdir holds the WAL directories, probe files and span dumps.
	workdir string
	// small shrinks set-up for the smoke tests: fewer servers and
	// tenants, one set-up repetition. Benchmark runs never set it.
	small bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run returns: the end-to-end metrics (from
// the untraced measurement), the per-layer metrics (traced runs only),
// the operation counts and every broken output check.
type outcome struct {
	endToEnd  map[string]metric
	perLayer  map[string]metric
	attempted int64
	failed    int64
	// violations names each broken output check; any entry fails the run.
	violations []string
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*outcome, error){
	"serve-http":    runServeHTTP,
	"enforce-fleet": runEnforceFleet,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-http or enforce-fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same operations")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for WAL directories, probes and span files")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", cfg.workload, trace, cfg.seconds)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}
	abs, err := filepath.Abs(cfg.workdir)
	if err != nil {
		fatal(err)
	}
	cfg.workdir = abs

	fp := fingerprint(cfg)
	line, _ := json.Marshal(map[string]any{"fingerprint": fp})
	fmt.Println(string(line))

	out, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	for _, v := range out.violations {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", v)
	}
	res := result{
		Correct:   len(out.violations) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed + int64(len(out.violations)),
		Metrics:   out.endToEnd,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	// ok_frac and failed_frac count failed operations and broken output
	// checks alike.
	failed := float64(res.Failed) / float64(res.Attempted)
	out.endToEnd["ok_frac"] = metric{1 - failed, "ratio"}
	if cfg.trace {
		out.perLayer["failed_frac"] = metric{failed, "ratio"}
		res.Metrics = out.perLayer
	}
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
