package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// WAL segment parameters.
const (
	// durableFill is the slot occupancy set-up fills the service to.
	durableFill = 0.5
	// durableBatch is the number of requests in one AdmitBatch.
	durableBatch = 4
	// durableDepartRef scales departures so the closed loop holds about
	// the fill occupancy: arrivals per op are 0.20+0.05*4 = 0.4 tenants
	// against 0.5*live/ref departures, which balance at live = 0.8*ref,
	// about the tenant count of a half-full 512-server tree.
	durableDepartRef = 165.0
)

// durableMix is the closed-loop mix: admit, batch, resize, release, get.
var durableMix = mix{0.20, 0.05, 0.25, 0.50, 0}

// libBench is one in-process durable service and its clients' state.
type libBench struct {
	svc   guarantee.Service // the service itself
	api   guarantee.Service // what clients call: svc, or its traced decorator
	dir   string
	pool  []*tag.Graph
	live  liveSet
	stats counts
	wal   *walTracker
}

// newLibBench builds a durable service on a fresh WAL directory and
// fills it to durableFill occupancy.
func newLibBench(cfg config, tr *tracer, pool []*tag.Graph) (*libBench, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "wal-")
	if err != nil {
		return nil, err
	}
	spec := topology.MediumSpec()
	if cfg.small {
		spec = topology.SmallSpec()
	}
	svc, err := guarantee.New(spec, guarantee.WithAlgorithm("cm"), guarantee.WithDurability(dir))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b := &libBench{svc: svc, api: traced(svc, tr), dir: dir, pool: pool}
	// The fill is one AdmitBatch sized from the TAGs' VM counts to reach
	// durableFill, then small batches top it up. Few fsyncs keep set-up
	// time about the service, not about the disk, whose fsync latency
	// swings tenfold within a minute on a shared machine.
	gen := newOpGen(setupSeed, 0, mix{0, 1}, len(pool), durableBatch, 0)
	var slots int
	for _, l := range svc.Loads() {
		slots += l.SlotsTotal
	}
	o := op{Kind: opBatch}
	for vms := 0; float64(vms) < durableFill*float64(slots); {
		i := gen.bag.draw(gen.r)
		o.Pools = append(o.Pools, i)
		vms += pool[i].VMs()
	}
	for i := 0; occupancy(svc) < durableFill; i, o = i+1, gen.next() {
		if i > 10_000 {
			b.close()
			return nil, errors.New("fill: occupancy never reached")
		}
		if _, err := b.exec(context.Background(), o); err != nil {
			b.close()
			return nil, fmt.Errorf("fill: %w", err)
		}
	}
	return b, nil
}

// occupancy is the fleet's used share of VM slots.
func occupancy(svc guarantee.Service) float64 {
	var used, total int
	for _, l := range svc.Loads() {
		used += l.SlotsUsed
		total += l.SlotsTotal
	}
	return float64(used) / float64(total)
}

// close shuts the service and removes its directory.
func (b *libBench) close() {
	b.svc.Close(context.Background()) //nolint:errcheck // the directory is removed next
	os.RemoveAll(b.dir)
}

// capacityErr reports whether err is an expected capacity rejection,
// counting it by reason.
func capacityErr(c *counts, err error) bool {
	r := string(guarantee.ReasonOf(err))
	if !capacityReasons[r] {
		return false
	}
	c.add("reject."+r, 1)
	return true
}

// exec runs one op on the in-process service.
func (b *libBench) exec(ctx context.Context, o op) (bool, error) {
	defer b.wal.observe(b.svc)
	switch o.Kind {
	case opAdmit:
		g := b.pool[o.Pools[0]]
		b.stats.add("admit.attempts", 1)
		grant, err := b.api.Admit(ctx, guarantee.Request{Graph: g})
		if err != nil {
			if capacityErr(&b.stats, err) {
				return true, nil
			}
			return true, fmt.Errorf("admit: %w", err)
		}
		b.stats.add("admit.admitted", 1)
		b.live.add(&tenant{grant: grant, graph: g})
		return true, nil
	case opBatch:
		reqs := make([]guarantee.Request, len(o.Pools))
		for i, p := range o.Pools {
			reqs[i] = guarantee.Request{Graph: b.pool[p]}
		}
		b.stats.add("admit.attempts", int64(len(reqs)))
		grants, err := b.api.AdmitBatch(ctx, reqs)
		if len(grants) != len(reqs) {
			return true, fmt.Errorf("batch: %d grants for %d requests (%v)", len(grants), len(reqs), err)
		}
		rejected := 0
		for i, g := range grants {
			if g != nil {
				b.stats.add("admit.admitted", 1)
				b.live.add(&tenant{grant: g, graph: reqs[i].Graph})
			} else {
				rejected++
			}
		}
		var errs []error
		if j, ok := err.(interface{ Unwrap() []error }); ok {
			errs = j.Unwrap()
		} else if err != nil {
			errs = []error{err}
		}
		if len(errs) != rejected {
			return true, fmt.Errorf("batch: %d rejected grants but %d errors", rejected, len(errs))
		}
		for _, e := range errs {
			if !capacityErr(&b.stats, e) {
				return true, fmt.Errorf("batch: %w", e)
			}
		}
		return true, nil
	case opResize:
		t := b.live.take(o.Pick, false)
		if t == nil {
			return false, nil
		}
		defer b.live.put(t)
		g, err := resized(t.graph, o)
		if err != nil {
			return true, err
		}
		if err := t.grant.Resize(ctx, g); err != nil {
			if capacityErr(&b.stats, err) {
				return true, nil
			}
			return true, fmt.Errorf("resize: %w", err)
		}
		t.graph = g
		return true, nil
	case opRelease:
		if !departs(o, b.live.len(), durableDepartRef) {
			return false, nil
		}
		t := b.live.take(o.Pick, true)
		if t == nil {
			return false, nil
		}
		t.grant.Release()
		return true, nil
	}
	return false, fmt.Errorf("unexpected op kind %v", o.Kind)
}

// walTracker accumulates WAL records, bytes and fsyncs from
// Durability.Stats() read after every op. Records and the segment
// offset restart at each snapshot; a generation change counts the new
// generation's totals.
type walTracker struct {
	mu                     sync.Mutex
	last                   guarantee.WALStats
	records, bytes, fsyncs uint64
}

func newWALTracker(svc guarantee.Service) *walTracker {
	return &walTracker{last: svc.Durability().Stats()}
}

// observe folds the log's current position in. Nil-safe: untraced
// passes keep no tracker.
func (w *walTracker) observe(svc guarantee.Service) {
	if w == nil {
		return
	}
	st := svc.Durability().Stats()
	w.mu.Lock()
	defer w.mu.Unlock()
	if st.Gen != w.last.Gen {
		w.records += st.Records
		w.bytes += uint64(st.Offset)
	} else if st.Records >= w.last.Records {
		w.records += st.Records - w.last.Records
		w.bytes += uint64(st.Offset - w.last.Offset)
	}
	w.fsyncs += st.Fsyncs - w.last.Fsyncs
	w.last = st
}

// walShare is the share of a traced serve-http run's measured time
// that the WAL segment adds to it.
const walShare = 0.2

// walSegment measures the WAL layer for a traced serve-http run. An
// in-process service built with WithDurability on a fresh directory is
// filled to half its slots, warmed up, and driven by 2 closed-loop
// clients mixing single Admit, AdmitBatch, resize and release. Then it
// is closed and recovered, and the recovery must hold every live grant
// with bit-identical loads. The wal.* and durability.* metrics join
// out's per-layer metrics, the segment's ops join out's counts and its
// broken checks out's violations; its spans go to a file of their own.
//
// The WAL has no end-to-end workload of its own: a durable op waits
// on an fsync and on the wake-up of the client it releases, and on a
// shared host how long those take spread every durable latency and
// rate over 15% to 95% of its median between runs of the same code,
// past any bound.
func walSegment(cfg config, out *outcome) error {
	cfg.seconds *= walShare
	tr := newTracer()
	pool := tenantPool()
	b, err := newLibBench(cfg, tr, pool)
	if err != nil {
		return fmt.Errorf("wal segment: %w", err)
	}
	defer os.RemoveAll(b.dir)
	var errs errLog
	warm := warmUp(newOpGen(cfg.seed, 3, durableMix, len(pool), durableBatch, 0), warmOps, b.exec, errs.log)
	b.stats.reset()
	tr.reset()
	b.wal = newWALTracker(b.svc)

	step := time.Duration(cfg.seconds * float64(time.Second) / rounds)
	var ph phases
	for r := int64(0); r < rounds; r++ {
		ph = append(ph, closedLoop(newOpGen(cfg.seed, 10+r, durableMix, len(pool), durableBatch, 0), step, b.exec, errs.log))
	}
	ran, failed := ph.counts()
	out.attempted += warm.ran + ran
	out.failed += warm.failed + failed

	m := out.perLayer
	m["durability.admit_p50_ms"] = metric{ph.lat("admit", 0.5), "ms"}
	m["durability.batch_admit_p50_ms"] = metric{pct(ph.all("batch"), 0.5), "ms"}
	m["durability.ops_per_s"] = metric{ph.rate(), "1/s"}
	ops := float64(max(ran, 1))
	m["wal.fsyncs_per_op"] = metric{float64(b.wal.fsyncs) / ops, "count"}
	m["wal.bytes_per_op"] = metric{float64(b.wal.bytes) / ops, "bytes"}
	m["wal.records"] = metric{float64(b.wal.records), "count"}
	var snaps []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := b.svc.Durability().Snapshot(); err != nil {
			out.violations = append(out.violations, "snapshot: "+err.Error())
		}
		snaps = append(snaps, ms(time.Since(t0)))
	}
	m["durability.snapshot_ms"] = metric{pct(snaps, 0.5), "ms"}

	// Close, recover, and demand the same grants and bit-identical loads.
	live := b.live.len()
	loads := b.svc.Loads()
	if err := b.svc.Close(context.Background()); err != nil {
		return fmt.Errorf("wal segment: close: %w", err)
	}
	t0 := time.Now()
	rec, err := guarantee.Open(b.dir)
	if err != nil {
		return fmt.Errorf("wal segment: recover: %w", err)
	}
	defer rec.Close(context.Background()) //nolint:errcheck // closed again below on the success path
	m["durability.open_ms"] = metric{ms(time.Since(t0)), "ms"}
	grants := rec.Durability().Grants()
	if len(grants) != live {
		out.violations = append(out.violations, fmt.Sprintf("recovered %d grants, %d were live", len(grants), live))
	}
	got := rec.Loads()
	for i := range loads {
		if i >= len(got) || got[i].SlotsUsed != loads[i].SlotsUsed || got[i].Tenants != loads[i].Tenants ||
			math.Float64bits(got[i].ReservedMbps) != math.Float64bits(loads[i].ReservedMbps) {
			out.violations = append(out.violations, fmt.Sprintf("shard %d recovered loads differ", i))
		}
	}
	for _, g := range grants {
		g.Release()
	}
	out.violations = append(out.violations, drainedChecks(rec)...)
	if err := rec.Close(context.Background()); err != nil {
		out.violations = append(out.violations, "close recovered: "+err.Error())
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-wal-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.dump(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
