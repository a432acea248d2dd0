package sim

import (
	"testing"

	"cloudmirror/internal/place"
	"cloudmirror/internal/place/cloudmirror"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/workload"
)

func throughputConfig(arrivals int) Config {
	pool := workload.BingLike(1)
	workload.ScaleToBmax(pool, 800)
	return Config{
		Spec:      topology.SmallSpec(),
		NewPlacer: func(t *topology.Tree) place.Placer { return cloudmirror.New(t) },
		Pool:      pool,
		Arrivals:  arrivals,
		Seed:      1,
	}
}

// TestThroughputConcurrent drives the concurrent admission path on one
// shared tree with several workers; under -race this doubles as a
// data-race test of the full placer stack behind the Admitter.
func TestThroughputConcurrent(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res, err := Throughput(throughputConfig(200), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Workers != workers {
			t.Errorf("workers = %d, want %d", res.Workers, workers)
		}
		if res.Attempts != 200 {
			t.Errorf("workers=%d: attempts = %d, want 200", workers, res.Attempts)
		}
		if res.Admitted+res.Rejected != res.Attempts {
			t.Errorf("workers=%d: admitted %d + rejected %d != attempts %d",
				workers, res.Admitted, res.Rejected, res.Attempts)
		}
		if res.Admitted == 0 {
			t.Errorf("workers=%d: nothing admitted", workers)
		}
		if res.AttemptsPerSec <= 0 {
			t.Errorf("workers=%d: non-positive throughput %g", workers, res.AttemptsPerSec)
		}
	}
}

// TestShardedThroughput drives the dispatcher-based admission path over
// several shards and policies; under -race this doubles as a data-race
// test of the cluster layer.
func TestShardedThroughput(t *testing.T) {
	for _, policy := range []string{"rr", "least", "p2c"} {
		res, err := ShardedThroughput(throughputConfig(200), 4, policy, 4)
		if err != nil {
			t.Fatalf("policy=%s: %v", policy, err)
		}
		if res.Shards != 4 {
			t.Errorf("policy=%s: shards = %d, want 4", policy, res.Shards)
		}
		if res.Policy != policy {
			t.Errorf("policy = %q, want %q", res.Policy, policy)
		}
		if res.Attempts != 200 {
			t.Errorf("policy=%s: attempts = %d, want 200", policy, res.Attempts)
		}
		if res.Admitted+res.Rejected != res.Attempts {
			t.Errorf("policy=%s: admitted %d + rejected %d != attempts %d",
				policy, res.Admitted, res.Rejected, res.Attempts)
		}
		if res.Admitted == 0 {
			t.Errorf("policy=%s: nothing admitted", policy)
		}
	}
}

// TestThroughputIsShardsOne: the single-tree entry point is the
// shards=1 special case of the shared plumbing.
func TestThroughputIsShardsOne(t *testing.T) {
	res, err := Throughput(throughputConfig(100), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 1 {
		t.Errorf("shards = %d, want 1", res.Shards)
	}
	if res.Policy != "rr" {
		t.Errorf("policy = %q, want rr", res.Policy)
	}
	if res.Failovers != 0 {
		t.Errorf("failovers = %d, want 0 on a single shard", res.Failovers)
	}
}

func TestThroughputValidation(t *testing.T) {
	cfg := throughputConfig(100)
	cfg.Pool = nil
	if _, err := Throughput(cfg, 2); err == nil {
		t.Error("empty pool accepted")
	}
	cfg = throughputConfig(0)
	if _, err := Throughput(cfg, 2); err == nil {
		t.Error("zero arrivals accepted")
	}
}
