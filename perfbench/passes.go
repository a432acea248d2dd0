package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"
)

// setupReps is how many times a serve-http run builds its set-up;
// setup_s is the median, and the last instance is the one measured.
// enforce-fleet builds a fleet for every round instead.
const setupReps = 7

// passFunc runs a workload once: set-up (reps times), the measured
// phases, and the output checks. With a tracer it also records spans
// and fills the per-layer metrics it owns; with watch it measures the
// Go runtime over the measured phases.
type passFunc func(cfg config, tr *tracer, reps int, watch bool) (*outcome, error)

// perLayerNames are the per-layer metrics every traced run reports; a
// layer the workload does not exercise reads 0.
var perLayerNames = []string{
	"http.admit_self_p50_ms", "http.resize_self_p50_ms", "http.req_bytes", "http.resp_bytes",
	"http.admit_p99_ms", "http.resize_p99_ms",
	"service.admit_p50_ms", "service.admit_p99_ms", "service.resize_p99_ms", "service.release_p50_ms",
	"service.allocs_per_admit", "service.bytes_per_admit", "cluster.failovers_per_admit",
	"reject.no_slots", "reject.insufficient_bandwidth", "reject.no_feasible_placement",
	"wal.fsyncs_per_op", "wal.bytes_per_op", "wal.records",
	"durability.admit_p50_ms", "durability.batch_admit_p50_ms", "durability.ops_per_s",
	"durability.snapshot_ms", "durability.open_ms",
	"enforce.step_p50_ms", "enforce.setdemand_p50_ms", "enforce.solved_per_step", "enforce.components",
	"enforce.pairs", "enforce.admit_p50_ms", "enforce.sparse_period_p50_ms", "enforce.sparse_period_p90_ms",
	"go.gc_cycles", "go.gc_pause_total_ms", "go.heap_peak_bytes",
	"gen.late_p99_ms", "gen.open_admit_p50_ms", "gen.open_admit_p99_ms", "net.loopback_rtt_p50_ms", "disk.fsync_p50_ms",
	"failed_frac", "trace.overhead_op_ms", "trace.overhead_ops_frac", "trace.spans",
}

// perLayerUnits gives each per-layer metric's unit.
var perLayerUnits = map[string]string{
	"http.req_bytes": "bytes", "http.resp_bytes": "bytes",
	"service.allocs_per_admit": "count", "service.bytes_per_admit": "bytes",
	"cluster.failovers_per_admit": "count",
	"reject.no_slots":             "count", "reject.insufficient_bandwidth": "count", "reject.no_feasible_placement": "count",
	"wal.fsyncs_per_op": "count", "wal.bytes_per_op": "bytes", "wal.records": "count", "durability.ops_per_s": "1/s",
	"enforce.solved_per_step": "count", "enforce.components": "count", "enforce.pairs": "count",
	"go.gc_cycles": "count", "go.heap_peak_bytes": "bytes",
	"failed_frac": "ratio", "trace.overhead_ops_frac": "ratio", "trace.spans": "count",
}

// unitOf returns a per-layer metric's unit (ms unless listed).
func unitOf(name string) string {
	if u, ok := perLayerUnits[name]; ok {
		return u
	}
	return "ms"
}

// runPasses runs a workload: one pass for end-to-end metrics, or, when
// tracing, an untraced pass followed by a traced one, each measuring
// half the run, whose difference is the tracing overhead. Traced runs
// also measure the platform floors and write the spans to the work
// directory.
func runPasses(cfg config, pass passFunc) (*outcome, error) {
	reps := setupReps
	if cfg.small {
		reps = 1
	}
	if !cfg.trace {
		return pass(cfg, nil, reps, false)
	}
	// The two passes share the run's measured time.
	cfg.seconds /= 2
	u, err := pass(cfg, nil, 1, true)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	t, err := pass(cfg, tr, 1, false)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		endToEnd:   u.endToEnd,
		perLayer:   make(map[string]metric),
		attempted:  u.attempted + t.attempted,
		failed:     u.failed + t.failed,
		violations: append(u.violations, t.violations...),
	}
	for _, name := range perLayerNames {
		out.perLayer[name] = metric{0, unitOf(name)}
	}
	for k, v := range t.perLayer {
		out.perLayer[k] = v
	}
	for _, k := range []string{"go.gc_cycles", "go.gc_pause_total_ms", "go.heap_peak_bytes"} {
		out.perLayer[k] = u.perLayer[k]
	}
	out.perLayer["trace.overhead_op_ms"] = metric{t.endToEnd["op_ms"].Value - u.endToEnd["op_ms"].Value, "ms"}
	if base := u.endToEnd["ops_per_s"].Value; base > 0 {
		out.perLayer["trace.overhead_ops_frac"] = metric{(base - t.endToEnd["ops_per_s"].Value) / base, "ratio"}
	}
	out.perLayer["trace.spans"] = metric{float64(len(tr.spans)), "count"}

	rtt, err := loopbackRTT(200)
	if err != nil {
		return nil, fmt.Errorf("loopback probe: %w", err)
	}
	out.perLayer["net.loopback_rtt_p50_ms"] = metric{pct(rtt, 0.5), "ms"}
	fs, err := fsyncProbe(cfg.workdir, 50)
	if err != nil {
		return nil, err
	}
	out.perLayer["disk.fsync_p50_ms"] = metric{pct(fs, 0.5), "ms"}

	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.dump(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	line, _ := json.Marshal(map[string]any{"layer_self_ms": tr.layerSelf(), "spans_file": path})
	fmt.Println(string(line))
	return out, nil
}

// endToEnd builds the end-to-end metrics every workload reports. main
// sets ok_frac once the output checks have run.
func endToEnd(setup, op, aux, opsPerSec, cpuPerOp, accept float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {setup, "s"},
		"op_ms":         {op, "ms"},
		"aux_p50_ms":    {aux, "ms"},
		"ops_per_s":     {opsPerSec, "1/s"},
		"cpu_ms_per_op": {cpuPerOp, "ms"},
		"accept_ratio":  {accept, "ratio"},
		"ok_frac":       {1, "ratio"},
	}
}

// since returns the seconds elapsed from start.
func since(start time.Time) float64 { return time.Since(start).Seconds() }
