package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/parallel"
	"cloudmirror/internal/place"
)

// ThroughputResult reports a concurrent-admission measurement: many
// workers hammering a shard fleet through the public
// guarantee.Service.
type ThroughputResult struct {
	// Placer and Policy identify the placement algorithm and dispatch
	// policy under test.
	Placer, Policy string
	// Shards is the fleet size; 1 is the single-shared-tree case.
	Shards int
	// Workers is the number of concurrent admission clients.
	Workers int
	// Attempts is the total number of admission attempts issued.
	Attempts int
	// Admitted and Rejected partition the attempts; Rejected means
	// every shard refused the request.
	Admitted, Rejected int
	// Failovers counts placement attempts beyond each request's first
	// shard.
	Failovers int64
	// Elapsed is the wall time of the measurement phase.
	Elapsed time.Duration
	// AttemptsPerSec is the sustained admission-decision rate.
	AttemptsPerSec float64
	// AllocsPerAdmit and BytesPerAdmit are the heap-allocation costs of
	// one admission decision: runtime.MemStats deltas over the
	// measurement phase (workload generation included) divided by
	// attempts.
	AllocsPerAdmit float64
	BytesPerAdmit  float64
	// Fsyncs counts write-ahead-log fsyncs issued during the run
	// (durable mode only). Group commit keeps it below the operation
	// count under concurrency.
	Fsyncs uint64
}

// holdWindow is how many live tenants each worker keeps before churning
// the oldest, so the trees sit at a realistic steady-state occupancy.
const holdWindow = 8

// Throughput measures sustained admission throughput on a single shared
// tree — the Shards=1 special case of ShardedThroughput, kept as the
// entry point for single-tree studies so both paths share one worker
// loop and cannot drift.
func Throughput(cfg Config, workers int) (*ThroughputResult, error) {
	return ShardedThroughput(cfg, 1, "", workers)
}

// ShardedThroughput measures sustained admission throughput on a fleet
// of shards trees: `workers` concurrent clients each issue a share of
// cfg.Arrivals admission attempts (tenants sampled from cfg.Pool with a
// per-worker RNG derived deterministically from cfg.Seed) through one
// shared guarantee.Service running the named policy ("" means "rr"),
// holding up to a small window of live tenants and releasing the oldest
// as they go.
//
// Unlike Run and Churn, this is a performance measurement, not a
// results artifact: the admission order — and therefore which tenants
// are accepted, and on which shard — depends on scheduling when
// workers > 1. Counters are exact, placements are always consistent
// (each shard's admission path serializes its ledger mutations), and
// the fleet is fully drained before returning.
func ShardedThroughput(cfg Config, shards int, policy string, workers int) (*ThroughputResult, error) {
	return shardedThroughput(cfg, shards, policy, workers, "")
}

// DurableThroughput is the durable-mode variant of ShardedThroughput:
// the service writes a write-ahead log under dir (which must be empty),
// so every admission decision is fsynced before it is acknowledged.
// Concurrent clients exercise the WAL group commit — the result's
// Fsyncs field reports how many fsyncs the run actually paid.
func DurableThroughput(cfg Config, shards int, policy string, workers int, dir string) (*ThroughputResult, error) {
	return shardedThroughput(cfg, shards, policy, workers, dir)
}

// shardedThroughput is the shared measurement loop behind the
// throughput entry points; a non-empty walDir makes the service
// durable.
func shardedThroughput(cfg Config, shards int, policy string, workers int, walDir string) (*ThroughputResult, error) {
	if len(cfg.Pool) == 0 {
		return nil, errors.New("sim: empty tenant pool")
	}
	if cfg.Arrivals <= 0 {
		return nil, errors.New("sim: Arrivals must be positive")
	}
	workers = parallel.Workers(workers)
	if workers > cfg.Arrivals {
		workers = cfg.Arrivals
	}
	opts := []guarantee.Option{
		guarantee.WithModelFor(cfg.ModelFor),
		guarantee.WithShards(shards),
		guarantee.WithPolicy(policy),
		guarantee.WithSeed(policySeed(cfg.Seed)),
		guarantee.WithWorkers(workers),
	}
	if walDir != "" {
		// Durable ledgers persist their placer by registered name, not
		// constructor; resolve cfg.NewPlacer's registered equivalent.
		opts = append(opts, guarantee.WithAlgorithm(cfg.AlgorithmName), guarantee.WithDurability(walDir))
	} else {
		opts = append(opts, guarantee.WithPlacer(cfg.NewPlacer))
	}
	svc, err := guarantee.New(cfg.Spec, opts...)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	var (
		wg       sync.WaitGroup
		firstErr atomic.Pointer[error]
		stop     atomic.Bool
	)
	fail := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
		stop.Store(true)
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now() //cloudlint:wallclock throughput benchmark measures real elapsed time; results are rates, not simulated state
	for w := 0; w < workers; w++ {
		ops := cfg.Arrivals / workers
		if w < cfg.Arrivals%workers {
			ops++
		}
		if ops == 0 {
			continue
		}
		wg.Add(1)
		go func(w, ops int) {
			defer wg.Done()
			// SplitMix-style odd multiplier keeps per-worker streams
			// disjoint for any seed.
			r := rand.New(rand.NewSource(cfg.Seed ^ (int64(w)+1)*-0x61C8864680B583EB))
			var live []guarantee.Grant
			defer func() {
				for _, g := range live {
					g.Release()
				}
			}()
			for i := 0; i < ops && !stop.Load(); i++ {
				g := cfg.Pool[r.Intn(len(cfg.Pool))]
				req := guarantee.Request{ID: int64(w)<<32 | int64(i), Graph: g, HA: cfg.HA}
				grant, err := svc.Admit(ctx, req)
				if err != nil {
					if !errors.Is(err, place.ErrRejected) {
						fail(fmt.Errorf("sim: concurrent placement error: %w", err))
						return
					}
					// Full: churn the oldest tenant to make room.
					if len(live) > 0 {
						live[0].Release()
						live = live[1:]
					}
					continue
				}
				live = append(live, grant)
				if len(live) > holdWindow {
					live[0].Release()
					live = live[1:]
				}
			}
		}(w, ops)
	}
	wg.Wait()
	elapsed := time.Since(start) //cloudlint:wallclock throughput benchmark measures real elapsed time; results are rates, not simulated state
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}
	stats := svc.Stats()
	res := &ThroughputResult{
		Placer:    svc.Name(),
		Policy:    svc.Policy(),
		Shards:    svc.Shards(),
		Workers:   workers,
		Attempts:  int(stats.Admitted + stats.Rejected),
		Admitted:  int(stats.Admitted),
		Rejected:  int(stats.Rejected),
		Failovers: stats.Failovers,
		Elapsed:   elapsed,
	}
	if elapsed > 0 {
		res.AttemptsPerSec = float64(res.Attempts) / elapsed.Seconds()
	}
	if res.Attempts > 0 {
		res.AllocsPerAdmit = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(res.Attempts)
		res.BytesPerAdmit = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(res.Attempts)
	}
	if dur := svc.Durability(); dur != nil {
		res.Fsyncs = dur.Stats().Fsyncs
		if err := svc.Close(ctx); err != nil {
			return nil, err
		}
	}
	return res, nil
}
