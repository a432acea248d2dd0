package dataplane

import (
	"fmt"
	"slices"
	"testing"

	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// hoseGraph is a one-tier TAG of n VMs with a per-VM hose guarantee.
func hoseGraph(name string, n int, hose float64) *tag.Graph {
	g := tag.New(name)
	g.AddSelfLoop(g.AddTier("a", n), hose)
	return g
}

// onServers places one VM of a one-tier graph on each listed server.
func onServers(tree *topology.Tree, idx ...int) place.Placement {
	pl := make(place.Placement)
	for _, i := range idx {
		pl.Add(tree.Servers()[i], 1, 0, 1)
	}
	return pl
}

// modePair builds an incremental and a full-recompute driver over one
// tree.
func modePair(t *testing.T, tree *topology.Tree) (inc, full *Driver) {
	t.Helper()
	inc, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, err = New(tree, Config{FullRecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	return inc, full
}

// TestLoadsOnlyDemandMovesCoupling: two tenants whose flows share one
// server's downlink stay in separate components while their summed
// demand is below its capacity. A loads-only redeclaration (same pairs)
// that pushes the sum over capacity merges them at the next Step;
// lowering it splits them again. Both modes agree bit-for-bit
// throughout.
func TestLoadsOnlyDemandMovesCoupling(t *testing.T) {
	tree := topology.New(topology.Spec{
		SlotsPerServer: 2,
		Levels:         []topology.LevelSpec{{Name: "server", Fanout: 4, Uplink: 100}},
	})
	inc, full := modePair(t, tree)
	// Tenant 1 sends VM 0 → VM 1, server 0 → server 1; tenant 2 sends
	// VM 1 → VM 0, server 2 → server 1 (VMs bind to servers in ascending
	// order). Both cross server 1's downlink, and nothing else in common.
	for _, d := range []*Driver{inc, full} {
		d.Publish(admitEvent(1, hoseGraph("a", 2, 20), onServers(tree, 0, 1)))
		d.Publish(admitEvent(2, hoseGraph("b", 2, 20), onServers(tree, 1, 2)))
	}
	declare := func(key int64, mbps float64) {
		t.Helper()
		src, dst := 0, 1
		if key == 2 {
			src, dst = 1, 0
		}
		for _, d := range []*Driver{inc, full} {
			if err := d.SetDemand(key, []Demand{{Src: src, Dst: dst, Mbps: mbps}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := func(phase string, wantComps int) {
		t.Helper()
		stInc, err := inc.Step()
		if err != nil {
			t.Fatal(err)
		}
		stFull, err := full.Step()
		if err != nil {
			t.Fatal(err)
		}
		requireStatsIdentical(t, 0, stInc, stFull)
		if stInc.MinRatio < 1-1e-9 {
			t.Errorf("%s: MinRatio %g broke a guarantee", phase, stInc.MinRatio)
		}
		for _, d := range []*Driver{inc, full} {
			if _, c := d.SolveStats(); c != wantComps {
				t.Errorf("%s: %d components (FullRecompute=%v), want %d", phase, c, d.cfg.FullRecompute, wantComps)
			}
		}
	}
	declare(1, 30)
	declare(2, 30)
	step("60 of 100 Mbps", 2)
	declare(2, 80)
	step("110 of 100 Mbps", 1)
	step("110 of 100 Mbps, settling", 1)
	declare(2, 30)
	step("back to 60 of 100 Mbps", 2)
	// Exactly at capacity is within the margin: the link can bind.
	declare(2, 70)
	step("100 of 100 Mbps", 1)
}

// fleetTree is a three-level tree: 4 pods of 4 racks of 4 four-slot
// servers, so tenants spread over racks share ToR and pod uplinks.
func fleetTree() *topology.Tree {
	return topology.New(topology.Spec{
		SlotsPerServer: 4,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: 4, Uplink: 1000},
			{Name: "tor", Fanout: 4, Uplink: 4000},
			{Name: "pod", Fanout: 4, Uplink: 16000},
		},
	})
}

// admitFleet admits 64 three-VM tenants whose VMs sit in three
// different racks (so their flows cross ToR and pod uplinks shared with
// many other tenants) and returns the drivers' finite demand sets, if
// any are wanted.
func admitFleet(t *testing.T, tree *topology.Tree, finite bool, ds ...*Driver) [][]Demand {
	t.Helper()
	servers := len(tree.Servers())
	var demands [][]Demand
	for k := 0; k < 64; k++ {
		g := hoseGraph(fmt.Sprintf("t%d", k), 3, 10)
		pl := onServers(tree, k%servers, (k+17)%servers, (k+38)%servers)
		var dm []Demand
		for _, d := range ds {
			d.Publish(admitEvent(int64(k+1), g, pl))
			if !finite {
				continue
			}
			dm = defaultDemands(d.tenants[int64(k+1)].bind.Deployment())
			for i := range dm {
				dm[i].Mbps = 5
			}
			if err := d.SetDemand(int64(k+1), dm); err != nil {
				t.Fatal(err)
			}
		}
		demands = append(demands, dm)
	}
	return demands
}

// TestFiniteFleetSolvesSingletons is the gate against a regression to
// one giant component: 64 tenants with finite demands far below every
// link's capacity each form their own component, although under the
// all-links partition they are tangled together over shared uplinks,
// and one tenant's redeclaration re-solves exactly one component. The
// incremental transcript matches FullRecompute throughout.
func TestFiniteFleetSolvesSingletons(t *testing.T) {
	tree := fleetTree()
	inc, full := modePair(t, tree)
	demands := admitFleet(t, tree, true, inc, full)
	step := func() {
		t.Helper()
		stInc, err := inc.Step()
		if err != nil {
			t.Fatal(err)
		}
		stFull, err := full.Step()
		if err != nil {
			t.Fatal(err)
		}
		requireStatsIdentical(t, 0, stInc, stFull)
	}
	for i := 0; i < 4; i++ {
		step()
	}
	if _, c := inc.SolveStats(); c != 64 {
		t.Fatalf("%d components, want 64 singletons", c)
	}
	if ref := len(allLinksPartition(inc)); ref >= 32 {
		t.Fatalf("all-links partition has %d components; the fleet does not share links as intended", ref)
	}
	if s, _ := inc.SolveStats(); s != 0 {
		t.Fatalf("settled fleet re-solved %d components", s)
	}

	dm := slices.Clone(demands[9])
	dm[0].Mbps = 7
	for _, d := range []*Driver{inc, full} {
		if err := d.SetDemand(10, dm); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if s, c := inc.SolveStats(); s != 1 || c != 64 {
		t.Errorf("one redeclared tenant re-solved %d of %d components, want 1 of 64", s, c)
	}
}

// TestGreedyFleetKeepsAllLinksPartition: on the all-Greedy default
// demands every link a flow crosses can bind, so the partition is the
// all-links one, component for component.
func TestGreedyFleetKeepsAllLinksPartition(t *testing.T) {
	tree := fleetTree()
	d, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	admitFleet(t, tree, false, d)
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}
	got, want := driverPartition(d), allLinksPartition(d)
	if !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
		t.Errorf("Greedy fleet partition has %d components, all-links %d: %v != %v", len(got), len(want), got, want)
	}
}
