package topology

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// smallRes builds the small test tree with two resource dimensions, so
// delta tests cover the resource ledger too.
func smallRes() *Tree {
	return New(Spec{
		SlotsPerServer: 4,
		Levels: []LevelSpec{
			{Name: "server", Fanout: 3, Uplink: 100},
			{Name: "tor", Fanout: 2, Uplink: 150},
		},
		Resources: []ResourceSpec{{Name: "cpu", PerServer: 16}, {Name: "mem", PerServer: 64}},
	})
}

// mutableState snapshots every mutable accumulator of a tree for
// byte-exact comparison (float bits, not approximate equality).
func mutableState(t *Tree) [][]uint64 {
	var st [][]uint64
	row := make([]uint64, 0, t.NumNodes())
	for _, v := range t.slotsFree {
		row = append(row, uint64(uint32(v)))
	}
	st = append(st, row)
	for _, arr := range [][]float64{t.upResOut, t.upResIn} {
		row = make([]uint64, 0, len(arr))
		for _, v := range arr {
			row = append(row, math.Float64bits(v))
		}
		st = append(st, row)
	}
	if t.res != nil {
		for _, arr := range t.res.free {
			row = make([]uint64, 0, len(arr))
			for _, v := range arr {
				row = append(row, math.Float64bits(v))
			}
			st = append(st, row)
		}
	}
	return st
}

// randomDelta builds a random feasible positive delta against tr's
// current state, the shape a committed placement would export.
func randomDelta(r *rand.Rand, tr *Tree) Delta {
	var d Delta
	for _, s := range tr.Servers() {
		if r.Intn(2) == 0 {
			continue
		}
		free := tr.SlotsFree(s)
		if free == 0 {
			continue
		}
		n := 1 + r.Intn(free)
		d.Slots = append(d.Slots, SlotDelta{s, n})
		if tr.res != nil {
			d.Resources = append(d.Resources, ResourceDelta{s, []float64{
				math.Min(float64(n), tr.ResourceFree(s, 0)),
				math.Min(float64(n)*2, tr.ResourceFree(s, 1)),
			}})
		}
	}
	for n := NodeID(0); int(n) < tr.NumNodes(); n++ {
		if n == tr.Root() || r.Intn(2) == 0 {
			continue
		}
		availOut, availIn := tr.UplinkAvail(n)
		if availOut <= 0 && availIn <= 0 {
			continue
		}
		d.Links = append(d.Links, LinkDelta{n, r.Float64() * availOut, r.Float64() * availIn})
	}
	return d.Normalize()
}

// TestDeltaApplyRevertRoundTrip: a snapshot Save before an Apply and
// a RestoreSnapshot after it revert any recorded delta byte-identically
// — the rollback the admission path relies on to leave no float residue
// of a placement attempt in the ledger.
func TestDeltaApplyRevertRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := smallRes()
	ck := tr.NewSnapshot()
	for iter := 0; iter < 200; iter++ {
		// Drift the tree into an arbitrary occupied state first.
		tr.Apply(randomDelta(r, tr))
		before := mutableState(tr)
		d := randomDelta(r, tr)
		tr.Save(ck)
		tr.Apply(d)
		tr.RestoreSnapshot(ck)
		if !reflect.DeepEqual(mutableState(tr), before) {
			t.Fatalf("iter %d: Apply+RestoreSnapshot did not restore the ledger byte-identically", iter)
		}
		// Keep some occupancy across iterations, released arithmetically.
		if iter%3 == 0 {
			tr.Apply(d)
			tr.Apply(d.Negate())
		}
	}
}

// TestDeltaApplyMatchesIncremental: applying a delta reaches the same
// state as the equivalent UseSlots/Reserve/UseResources calls, so the
// delta path and the incremental path agree on semantics.
func TestDeltaApplyMatchesIncremental(t *testing.T) {
	a, b := smallRes(), smallRes()
	s0, s1 := a.Servers()[0], a.Servers()[4]
	d := Delta{
		Slots:     []SlotDelta{{s0, 3}, {s1, 2}},
		Links:     []LinkDelta{{s0, 40, 10}, {s1, 5, 5}, {a.Parent(s0), 40, 10}},
		Resources: []ResourceDelta{{s0, []float64{3, 6}}, {s1, []float64{2, 4}}},
	}
	a.Apply(d)

	if err := b.UseResources(s0, 3, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.UseResources(s1, 2, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.UseSlots(s0, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.UseSlots(s1, 2); err != nil {
		t.Fatal(err)
	}
	for _, lk := range d.Links {
		if err := b.Reserve(lk.Node, lk.Out, lk.In); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(mutableState(a), mutableState(b)) {
		t.Error("delta apply and incremental ops diverge")
	}

	// Departure: negated delta returns the tree to pristine (integers
	// exact; these floats have no accumulated rounding either).
	a.Apply(d.Negate())
	if !reflect.DeepEqual(mutableState(a), mutableState(smallRes())) {
		t.Error("negated delta did not drain the tree")
	}
}

// TestDeltaApplyPanics: over-release and non-server slot deltas panic
// exactly like the incremental release path.
func TestDeltaApplyPanics(t *testing.T) {
	for name, d := range map[string]Delta{
		"over-release": {Slots: []SlotDelta{{0, 0}}},
		"non-server":   {Slots: []SlotDelta{{0, 1}}},
	} {
		t.Run(name, func(t *testing.T) {
			tr := small()
			dd := d
			if name == "over-release" {
				dd = Delta{Slots: []SlotDelta{{tr.Servers()[0], -1}}}
			} else {
				dd = Delta{Slots: []SlotDelta{{tr.Root(), 1}}}
			}
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tr.Apply(dd)
		})
	}
}
