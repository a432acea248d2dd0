package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// enforce-fleet parameters.
const (
	fleetTenants = 512
	// fleetDirty is the share of tenants that redeclare before each
	// sparse-phase period.
	fleetDirty = 0.01
	// fleetChurnOdds: before each sparse period, one in this many
	// periods (seeded) sees a departure and a fresh arrival.
	fleetChurnOdds = 16
	// fleetFullPeriods is the length of each round's full phase.
	fleetFullPeriods = 30
	// fleetMinRounds is the fewest rounds a run makes, however short.
	fleetMinRounds = 3
	// minRatioFloor is the guarantee invariant every period must meet.
	minRatioFloor = 1 - 1e-9
)

// fleetBench is one enforcement-enabled service and its tenants.
type fleetBench struct {
	svc guarantee.Service // the service itself
	api guarantee.Service // svc, or its traced decorator
	enf *guarantee.Enforcement
	tr  *tracer
	// pool and pairs are the tenant pool and each entry's demand
	// pairs; arrivals are drawn from bag.
	pool  []*tag.Graph
	pairs [][]guarantee.Demand
	bag   bag
	r     *rand.Rand // arrivals, demand draws and churn schedule
	ts    []*tenant
	// attempts and admitted count admissions (fill and arrivals).
	attempts, admitted int
}

func runEnforceFleet(cfg config) (*outcome, error) { return runPasses(cfg, enforceFleetPass) }

// newFleetBench admits fleetTenants tenants with enforcement on,
// declares every tenant's demands and runs one warm-up period. r draws
// the demands, and the fleet's later arrivals and churn; the fill
// itself comes from setupSeed and is not traced.
func newFleetBench(cfg config, tr *tracer, pool []*tag.Graph, pairs [][]guarantee.Demand, r *rand.Rand) (*fleetBench, error) {
	spec, n := topology.PaperSpec(), fleetTenants
	if cfg.small {
		spec, n = topology.SmallSpec(), 16
	}
	svc, err := guarantee.New(spec, guarantee.WithAlgorithm("cm"), guarantee.WithEnforcement(guarantee.EnforcementConfig{}))
	if err != nil {
		return nil, err
	}
	b := &fleetBench{
		svc: svc, api: svc, enf: svc.Enforcement(), tr: tr,
		pool: pool, pairs: pairs, bag: bag{size: len(pool)}, r: r,
	}
	fillR, fillBag := rand.New(rand.NewSource(setupSeed)), bag{size: len(pool)}
	for len(b.ts) < n {
		if b.attempts > 10*n {
			return nil, errors.New("fill: fleet does not fit")
		}
		i := fillBag.draw(fillR)
		if _, err := b.arrive(pool[i], pairs[i]); err != nil {
			return nil, err
		}
	}
	for _, t := range b.ts {
		if err := b.enf.SetDemand(inner(t.grant), drawDemands(b.r, t.plan)); err != nil {
			return nil, err
		}
	}
	rep, err := b.enf.Step()
	if err != nil {
		return nil, err
	}
	if rep.MinRatio < minRatioFloor {
		return nil, fmt.Errorf("warm-up period broke a guarantee: min ratio %v", rep.MinRatio)
	}
	b.api = traced(svc, tr)
	return b, nil
}

// drain releases every tenant and checks that the service and the
// dataplane are empty again.
func (b *fleetBench) drain() []string {
	for _, t := range b.ts {
		t.grant.Release()
	}
	b.ts = nil
	v := drainedChecks(b.svc)
	if c := b.enf.Counters(); c.Admitted != c.Released {
		v = append(v, fmt.Sprintf("dataplane admitted %d tenants, released %d", c.Admitted, c.Released))
	}
	return v
}

// arrive admits a tenant with TAG g and demand pairs plan; capacity
// rejections are outcomes, not errors. It returns the admission
// latency.
func (b *fleetBench) arrive(g *tag.Graph, plan []guarantee.Demand) (float64, error) {
	b.attempts++
	start := time.Now()
	grant, err := b.api.Admit(context.Background(), guarantee.Request{ID: int64(b.attempts), Graph: g})
	lat := ms(time.Since(start))
	if err != nil {
		if capacityReasons[string(guarantee.ReasonOf(err))] {
			return lat, nil
		}
		return lat, fmt.Errorf("admit: %w", err)
	}
	b.admitted++
	b.ts = append(b.ts, &tenant{grant: grant, graph: g, plan: plan})
	return lat, nil
}

// redeclare sets fresh demands for tenant t.
func (b *fleetBench) redeclare(t *tenant) error {
	id := b.tr.begin("enforce.setdemand", 0, 0)
	err := b.enf.SetDemand(inner(t.grant), drawDemands(b.r, t.plan))
	b.tr.end(id)
	return err
}

// step runs one control period's Step and checks the guarantee floor.
func (b *fleetBench) step() (*guarantee.EnforcementReport, error) {
	id := b.tr.begin("enforce.step", 0, 0)
	rep, err := b.enf.Step()
	b.tr.end(id)
	if err != nil {
		return nil, err
	}
	if rep.MinRatio < minRatioFloor {
		return rep, fmt.Errorf("period broke a guarantee: min ratio %v", rep.MinRatio)
	}
	return rep, nil
}

// churn runs the seeded departure-and-arrival schedule before a
// sparse period: one period in fleetChurnOdds, a random tenant leaves
// and a fresh one drawn from the pool arrives and declares its
// demands.
func (b *fleetBench) churn(arrivals *[]float64, attempted *int64) error {
	if b.r.Intn(fleetChurnOdds) != 0 || len(b.ts) < 2 {
		return nil
	}
	k := b.r.Intn(len(b.ts))
	b.ts[k].grant.Release()
	b.ts[k] = b.ts[len(b.ts)-1]
	b.ts = b.ts[:len(b.ts)-1]
	n := len(b.ts)
	i := b.bag.draw(b.r)
	lat, err := b.arrive(b.pool[i], b.pairs[i])
	*attempted += 2
	if err != nil || len(b.ts) == n {
		return err
	}
	*arrivals = append(*arrivals, lat)
	return b.redeclare(b.ts[n])
}

// enforceFleetPass runs enforce-fleet once. Every round builds a fresh
// fleet, so reps is not used: setup_s is the median of the rounds'
// builds.
func enforceFleetPass(cfg config, tr *tracer, _ int, watch bool) (*outcome, error) {
	pool := tenantPool()
	pairs := make([][]guarantee.Demand, len(pool))
	for i, g := range pool {
		pairs[i] = demandPairs(g)
	}
	out := &outcome{perLayer: make(map[string]metric)}
	var errs errLog
	fail := func(err error) {
		out.failed++
		errs.log(err)
	}
	var w *runtimeWatch
	if watch {
		w = watchRuntime()
	}
	// Each round builds the fleet afresh, then runs one rotation of the
	// sparse phase and fleetFullPeriods periods of the full phase.
	// Rounds follow each other until the measured time is spent. The
	// churn moves a fleet's period cost as it goes, so a fleet kept
	// for a whole run drifted, by up to half, on a course each seed
	// set; rebuilt each round, it stays near the set-up fleet. The
	// sparse phase runs a whole rotation of the dirty window, so every
	// tenant redeclares once in each round: periods differ widely in
	// cost with the components the window dirties.
	r := rand.New(rand.NewSource(cfg.seed))
	measure := time.Duration(cfg.seconds * float64(time.Second))
	var sparse, full [][]float64      // period latencies by round
	var setups, rates, cpus []float64 // build seconds, sparse periods per second, CPU ms per sparse period, by round
	var arrivals []float64
	var periods, solved, components, pairCount int
	var attempts, admitted int // admissions over every round's fleet
	var b *fleetBench
	var measured time.Duration
	for round := 0; round < fleetMinRounds || measured < measure; round++ {
		if b != nil {
			out.violations = append(out.violations, b.drain()...)
		}
		runtime.GC()
		t0 := time.Now()
		nb, err := newFleetBench(cfg, tr, pool, pairs, r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
		b = nb
		dirty := max(1, int(fleetDirty*float64(len(b.ts))+0.999))
		rotation := (len(b.ts) + dirty - 1) / dirty

		start, cpu := time.Now(), cpuTime()
		var lat []float64
		for p, rot := 0, 0; p < rotation; p++ {
			if err := b.churn(&arrivals, &out.attempted); err != nil {
				fail(err)
			}
			t0 := time.Now()
			for k := 0; k < dirty; k++ {
				if err := b.redeclare(b.ts[(rot+k)%len(b.ts)]); err != nil {
					fail(err)
				}
			}
			rot = (rot + dirty) % len(b.ts)
			rep, err := b.step()
			lat = append(lat, ms(time.Since(t0)))
			out.attempted++
			if err != nil {
				fail(err)
				continue
			}
			s, c := b.enf.SolveStats()
			periods++
			solved += s
			components += c
			pairCount = rep.Pairs
		}
		sparse = append(sparse, lat)
		rates = append(rates, float64(len(lat))/since(start))
		cpus = append(cpus, ms(cpuTime()-cpu)/float64(len(lat)))

		lat = nil
		for p := 0; p < fleetFullPeriods; p++ {
			t0 := time.Now()
			for _, t := range b.ts {
				if err := b.redeclare(t); err != nil {
					fail(err)
				}
			}
			_, err := b.step()
			lat = append(lat, ms(time.Since(t0)))
			out.attempted++
			if err != nil {
				fail(err)
			}
		}
		full = append(full, lat)
		measured += time.Since(start)
		attempts, admitted = attempts+b.attempts, admitted+b.admitted
	}
	if w != nil {
		w.finish(out.perLayer)
	}
	// A sparse period's cost depends on the components its window
	// dirties, and a round's periods fall into clusters of cost whose
	// shares move from round to round; the p50 jumps between them,
	// while the mean holds still. So op_ms is the mean and the p50 is
	// reported per layer.
	means := make([]float64, len(sparse))
	for i, lat := range sparse {
		means[i] = mean(lat)
	}
	out.endToEnd = endToEnd(pct(setups, 0.5), pct(means, 0.5), grouped(full, 0.5), pct(rates, 0.5),
		pct(cpus, 0.5), float64(admitted)/float64(max(attempts, 1)))

	if tr != nil {
		serviceLayer(out.perLayer, tr)
		out.perLayer["enforce.step_p50_ms"] = metric{pct(tr.durations("enforce.step"), 0.5), "ms"}
		out.perLayer["enforce.setdemand_p50_ms"] = metric{pct(tr.durations("enforce.setdemand"), 0.5), "ms"}
		n := float64(max(periods, 1))
		out.perLayer["enforce.solved_per_step"] = metric{float64(solved) / n, "count"}
		out.perLayer["enforce.components"] = metric{float64(components) / n, "count"}
		out.perLayer["enforce.pairs"] = metric{float64(pairCount), "count"}
		out.perLayer["enforce.admit_p50_ms"] = metric{pct(arrivals, 0.5), "ms"}
		out.perLayer["enforce.sparse_period_p50_ms"] = metric{grouped(sparse, 0.5), "ms"}
		out.perLayer["enforce.sparse_period_p90_ms"] = metric{grouped(sparse, 0.9), "ms"}
	}
	out.violations = append(out.violations, b.drain()...)
	if tr != nil {
		allocMetrics(out.perLayer, b.svc, pool, cfg.seed)
	}
	return out, nil
}
