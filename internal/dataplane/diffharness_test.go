package dataplane

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// This differential harness proves the incremental stepper correct the
// same way internal/place/diffharness_test.go proves the free-capacity
// indexes: run the same trace through the optimized path and the
// brute-force path and require byte-identical observable state. Here
// the trace is a churn of admissions, resizes, releases, demand
// declarations, and control periods; the observable is the full
// StepStats transcript, compared Float64bits-for-Float64bits.

// diffTopo is a two-level tree with multi-slot servers, so placements
// mix colocated (nil-path) and fabric-crossing pairs and tenants
// placed under different ToRs fall into different components.
func diffTopo() *topology.Tree {
	return topology.New(topology.Spec{
		SlotsPerServer: 4,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: 4, Uplink: 1000},
			{Name: "tor", Fanout: 4, Uplink: 4000},
		},
	})
}

// diffGraph builds a small random two- or three-tier TAG.
func diffGraph(rng *rand.Rand, id int) *tag.Graph {
	g := tag.New(fmt.Sprintf("t%d", id))
	tiers := 2 + rng.Intn(2)
	prev := -1
	for ti := 0; ti < tiers; ti++ {
		size := 1 + rng.Intn(3)
		cur := g.AddTier(fmt.Sprintf("tier%d", ti), size)
		if prev >= 0 {
			bw := float64(10 * (1 + rng.Intn(10)))
			g.AddEdge(prev, cur, bw, bw)
		}
		if rng.Intn(2) == 0 {
			g.AddSelfLoop(cur, float64(10*(1+rng.Intn(5))))
		}
		prev = cur
	}
	return g
}

// diffPlace places the graph's VMs on consecutive slots starting at a
// random server offset, wrapping around — adjacent tenants share
// servers and ToRs, distant ones do not, exercising component merges
// and splits as tenants come and go.
func diffPlace(rng *rand.Rand, tree *topology.Tree, g *tag.Graph) place.Placement {
	servers := tree.Servers()
	pl := make(place.Placement)
	si := rng.Intn(len(servers))
	slots := 0
	for t := 0; t < g.Tiers(); t++ {
		for k := 0; k < g.TierSize(t); k++ {
			pl.Add(servers[si], g.Tiers(), t, 1)
			slots++
			if slots%2 == 0 { // two VMs per server before moving on
				si = (si + 1) % len(servers)
			}
		}
	}
	return pl
}

// diffDemands draws a random demand set over the tenant's TAG-permitted
// pairs: a subset of pairs, each backlogged or finite — or, when
// finite is set, every one finite.
func diffDemands(rng *rand.Rand, drv *Driver, key int64, finite bool) []Demand {
	t := drv.tenants[key]
	full := defaultDemands(t.bind.Deployment())
	var ds []Demand
	for _, dm := range full {
		if rng.Intn(3) == 0 {
			continue // drop ~1/3 of the pairs
		}
		if finite || rng.Intn(2) == 0 {
			dm.Mbps = float64(rng.Intn(400)) + 1
		}
		ds = append(ds, dm)
	}
	return ds
}

// requireStatsIdentical compares two step reports bit-for-bit.
func requireStatsIdentical(t *testing.T, step int, inc, full *StepStats) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("step %d diverged: %s", step, fmt.Sprintf(format, args...))
	}
	feq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(inc.Tenants) != len(full.Tenants) {
		fail("tenant count %d != %d", len(inc.Tenants), len(full.Tenants))
	}
	if inc.Pairs != full.Pairs || inc.Colocated != full.Colocated {
		fail("pair counts (%d,%d) != (%d,%d)", inc.Pairs, inc.Colocated, full.Pairs, full.Colocated)
	}
	if !feq(inc.GuaranteedMbps, full.GuaranteedMbps) || !feq(inc.BaseMbps, full.BaseMbps) ||
		!feq(inc.AchievedMbps, full.AchievedMbps) || !feq(inc.SpareMbps, full.SpareMbps) ||
		!feq(inc.MinRatio, full.MinRatio) {
		fail("aggregates %+v != %+v", inc, full)
	}
	for i := range inc.Tenants {
		a, b := &inc.Tenants[i], &full.Tenants[i]
		if a.Key != b.Key || a.ID != b.ID || len(a.Pairs) != len(b.Pairs) {
			fail("tenant %d identity/pairs mismatch", i)
		}
		if !feq(a.GuaranteedMbps, b.GuaranteedMbps) || !feq(a.BaseMbps, b.BaseMbps) ||
			!feq(a.AchievedMbps, b.AchievedMbps) || !feq(a.SpareMbps, b.SpareMbps) ||
			!feq(a.MinRatio, b.MinRatio) {
			fail("tenant %d (key %d) aggregates differ: %+v != %+v", i, a.Key, a, b)
		}
		for j := range a.Pairs {
			pa, pb := a.Pairs[j], b.Pairs[j]
			if pa.Src != pb.Src || pa.Dst != pb.Dst || pa.Colocated != pb.Colocated ||
				!feq(pa.Guarantee, pb.Guarantee) || !feq(pa.Demand, pb.Demand) || !feq(pa.Rate, pb.Rate) {
				fail("tenant %d pair %d: %+v != %+v", i, j, pa, pb)
			}
		}
	}
}

// driveTrace drives two drivers through one identical random churn
// trace of admissions, resizes, releases, demand declarations, and
// control periods, handing every period's pair of step reports to
// check. With finite set, every tenant declares finite demands as soon
// as it is bound, so no Greedy pair ever reaches a control period and
// links bind only where declared loads add up to their capacity.
func driveTrace(t *testing.T, seed int64, steps int, finite bool, a, b *Driver, check func(step int, sa, sb *StepStats)) {
	t.Helper()
	tree := diffTopo()
	rng := rand.New(rand.NewSource(seed))
	var live []int64
	nextKey := int64(1)
	declare := func(step int, key int64) {
		ds := diffDemands(rng, a, key, finite)
		if err := a.SetDemand(key, ds); err != nil {
			t.Fatalf("step %d: SetDemand: %v", step, err)
		}
		if err := b.SetDemand(key, ds); err != nil {
			t.Fatalf("step %d: SetDemand: %v", step, err)
		}
	}
	apply := func(step int, ev place.Event) {
		a.Publish(ev)
		b.Publish(ev)
		if finite && ev.Kind != place.EventReleased {
			declare(step, ev.Key)
		}
	}

	for step := 0; step < steps; step++ {
		// Random churn between control periods.
		for _, op := range []int{rng.Intn(4), rng.Intn(4)} {
			switch {
			case op == 0 || len(live) == 0: // admit
				g := diffGraph(rng, int(nextKey))
				pl := diffPlace(rng, tree, g)
				apply(step, admitEvent(nextKey, g, pl))
				live = append(live, nextKey)
				nextKey++
			case op == 1 && len(live) > 1: // release
				i := rng.Intn(len(live))
				apply(step, place.Event{Kind: place.EventReleased, Key: live[i]})
				live = append(live[:i], live[i+1:]...)
			case op == 2: // resize: rebind the same tenant elsewhere
				i := rng.Intn(len(live))
				g := diffGraph(rng, int(live[i]))
				pl := diffPlace(rng, tree, g)
				apply(step, place.Event{Kind: place.EventResized, Key: live[i], ID: live[i], Graph: g, Placement: pl})
			default: // declare demands for a random live tenant
				declare(step, live[rng.Intn(len(live))])
			}
		}

		// A few quiet periods after each churn burst let limiters
		// converge, driving components settled so the incremental path
		// actually exercises its skip-and-splice branch.
		quiet := 1 + rng.Intn(4)
		for q := 0; q < quiet; q++ {
			sa, err := a.Step()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			sb, err := b.Step()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			requireBoundsExact(t, a)
			requireBoundsExact(t, b)
			check(step, sa, sb)
		}
	}
}

// diffResult summarizes one incremental-vs-full trace.
type diffResult struct {
	// incSolves and fullSolves count component solves per driver.
	incSolves, fullSolves int
	// splitSteps counts periods whose partition is finer than the
	// all-links partition of the same flow state.
	splitSteps int
}

// runDifferential drives an incremental and a full-recompute driver
// through one identical random trace, comparing every step transcript
// bit-for-bit.
func runDifferential(t *testing.T, seed int64, steps int, alpha float64, finite bool) diffResult {
	t.Helper()
	tree := diffTopo()
	inc, err := New(tree, Config{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(tree, Config{Alpha: alpha, FullRecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	var res diffResult
	driveTrace(t, seed, steps, finite, inc, full, func(step int, stInc, stFull *StepStats) {
		requireStatsIdentical(t, step, stInc, stFull)
		s, c := inc.SolveStats()
		res.incSolves += s
		if c > len(allLinksPartition(inc)) {
			res.splitSteps++
		}
		s, c = full.SolveStats()
		res.fullSolves += s
		if s != c {
			t.Fatalf("step %d: full recompute solved %d of %d components", step, s, c)
		}
	})
	return res
}

// TestDifferentialIncrementalMatchesFull is the harness at alpha 1
// (limiters jump to target, components settle in two periods): the
// incremental driver must produce byte-identical transcripts while
// solving strictly fewer components than the full recompute.
func TestDifferentialIncrementalMatchesFull(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 12
	}
	for seed := int64(1); seed <= 4; seed++ {
		res := runDifferential(t, seed, steps, 1, false)
		if res.incSolves >= res.fullSolves {
			t.Errorf("seed %d: incremental solved %d components, full %d — nothing was skipped",
				seed, res.incSolves, res.fullSolves)
		}
	}
}

// TestDifferentialSmoothedLimiters re-runs the harness at alpha 0.3,
// where limiters approach targets geometrically and settledness must
// wait for the floating-point fixed point.
func TestDifferentialSmoothedLimiters(t *testing.T) {
	steps := 25
	if testing.Short() {
		steps = 8
	}
	runDifferential(t, 99, steps, 0.3, false)
}

// TestDifferentialFiniteDemands runs the harness on traces whose
// demands are all finite, at alpha 1 and 0.3. Half of the pairs in the
// other traces are Greedy, so every link they cross can bind and the
// partition never comes out finer than the all-links one; here links
// bind only where the declared loads add up, so the demand-bounded
// split must actually run — some period must have more components than
// the all-links partition — and still give byte-identical transcripts.
func TestDifferentialFiniteDemands(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 15
	}
	for _, alpha := range []float64{1, 0.3} {
		for seed := int64(1); seed <= 4; seed++ {
			res := runDifferential(t, seed, steps, alpha, true)
			if res.splitSteps == 0 {
				t.Errorf("alpha %g seed %d: no period split the all-links partition", alpha, seed)
			}
			// Smoothed limiters may not settle within a short trace, so
			// only alpha 1 must skip.
			if alpha == 1 && res.incSolves >= res.fullSolves {
				t.Errorf("seed %d: incremental solved %d components, full %d — nothing was skipped",
					seed, res.incSolves, res.fullSolves)
			}
		}
	}
}

// TestDifferentialScopedMatchesAllLinks drives the demand-bounded
// partition and the all-links reference partition through the
// finite-demand churn traces. Splitting tenants across a link that
// cannot bind moves no rate beyond the solver's freeze band, so every
// pair rate must agree within 1e-6 Mbps and every guarantee must hold.
// Bit-for-bit agreement is expected but not promised — another
// tenant's water-level events can resolve a 1e-9 freeze decision
// differently — so mismatching bits are counted and logged, not
// failed. At alpha 1 the scoped MinRatio must be at least 1 − 1e-9 in
// every period.
func TestDifferentialScopedMatchesAllLinks(t *testing.T) {
	seeds, steps := int64(40), 30
	if testing.Short() {
		seeds, steps = 8, 15
	}
	tree := diffTopo()
	for _, alpha := range []float64{1, 0.3} {
		splits, mismatches := 0, 0
		for seed := int64(1); seed <= seeds; seed++ {
			scoped, err := New(tree, Config{Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(tree, Config{Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			coupleAllLinks(ref)
			driveTrace(t, seed, steps, true, scoped, ref, func(step int, ss, sr *StepStats) {
				if !slices.EqualFunc(driverPartition(ref), allLinksPartition(ref), slices.Equal[[]int64]) {
					t.Fatalf("alpha %g seed %d step %d: reference driver's partition is not the all-links one", alpha, seed, step)
				}
				if _, c := scoped.SolveStats(); c > len(ref.comps) {
					splits++
				}
				// At alpha 1 every period honors every guarantee; smoothed
				// limiters may dip below theirs while they converge, and
				// then the scoped driver must dip no further.
				if floor := min(1, sr.MinRatio) - 1e-9; ss.MinRatio < floor || (alpha == 1 && ss.MinRatio < 1-1e-9) {
					t.Fatalf("alpha %g seed %d step %d: scoped MinRatio %g, all-links %g", alpha, seed, step, ss.MinRatio, sr.MinRatio)
				}
				for i := range ss.Tenants {
					pa, pb := ss.Tenants[i].Pairs, sr.Tenants[i].Pairs
					for j := range pa {
						if math.Abs(pa[j].Rate-pb[j].Rate) > 1e-6 {
							t.Fatalf("alpha %g seed %d step %d: tenant %d pair %d rate %g, all-links %g",
								alpha, seed, step, ss.Tenants[i].Key, j, pa[j].Rate, pb[j].Rate)
						}
						if math.Float64bits(pa[j].Rate) != math.Float64bits(pb[j].Rate) {
							mismatches++
						}
					}
				}
			})
		}
		t.Logf("alpha %g: %d seeds, %d split periods, %d pair rates not bit-identical to the all-links partition",
			alpha, seeds, splits, mismatches)
		if splits == 0 {
			t.Errorf("alpha %g: no period split the all-links partition", alpha)
		}
	}
}

// TestDifferentialConverge checks the other stepping entry point:
// Converge transcripts must agree between modes too.
func TestDifferentialConverge(t *testing.T) {
	tree := diffTopo()
	inc, err := New(tree, Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(tree, Config{Alpha: 0.5, FullRecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for k := int64(1); k <= 6; k++ {
		g := diffGraph(rng, int(k))
		pl := diffPlace(rng, tree, g)
		ev := admitEvent(k, g, pl)
		inc.Publish(ev)
		full.Publish(ev)
	}
	stInc, itInc, err := inc.Converge(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	stFull, itFull, err := full.Converge(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if itInc != itFull {
		t.Fatalf("converged in %d (incremental) vs %d (full) iterations", itInc, itFull)
	}
	requireStatsIdentical(t, 0, stInc, stFull)
}
