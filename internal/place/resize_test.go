package place

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// fitResizer extends the test placer with first-fit incremental
// resizing, so the admitter-level Resize machinery is exercised without
// importing an algorithm package (they import place).
type fitResizer struct {
	firstFit
}

func (p *fitResizer) Resize(res *Reservation, oldG, newG *tag.Graph, tier int, ha HASpec) (*Reservation, error) {
	oldN, newN := oldG.TierSize(tier), newG.TierSize(tier)
	tx := res.Reopen(newG)
	servers := p.tree.Servers()
	switch {
	case newN == oldN:
		return tx.Commit(), nil
	case newN < oldN:
		d := oldN - newN
		for i := len(servers) - 1; i >= 0 && d > 0; i-- {
			k := tx.CountOf(servers[i], tier)
			if k > d {
				k = d
			}
			if k > 0 {
				tx.Unplace(servers[i], tier, k)
				d -= k
			}
		}
		if err := tx.SyncAll(); err != nil {
			return nil, err
		}
		return tx.Commit(), nil
	default:
		d := newN - oldN
		for _, s := range servers {
			if d == 0 {
				break
			}
			k := p.tree.SlotsFree(s)
			if k > d {
				k = d
			}
			if k == 0 {
				continue
			}
			if err := tx.Place(s, tier, k); err != nil {
				return nil, err
			}
			d -= k
		}
		if d > 0 {
			return nil, Rejectf("resize", ReasonNoSlots, "out of slots growing tier %d", tier)
		}
		if err := tx.SyncAll(); err != nil {
			return nil, err
		}
		return tx.Commit(), nil
	}
}

// resizeGraph builds a two-tier tenant with fixed per-VM guarantees.
func resizeGraph(a, b int) *tag.Graph {
	g := tag.New("resizable")
	ta := g.AddTier("a", a)
	tb := g.AddTier("b", b)
	g.AddBidirectional(ta, tb, 100, 50)
	return g
}

// resizeSpec is a small tree for resize tests: 8 servers × 4 slots.
func resizeSpec() topology.Spec {
	return topology.Spec{
		SlotsPerServer: 4,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: 4, Uplink: 10_000},
			{Name: "tor", Fanout: 2, Uplink: 20_000},
		},
	}
}

// reservedProfile summarizes a tree's ledger for byte-equality checks:
// free slots per server and reserved bandwidth per node.
func reservedProfile(t *topology.Tree) string {
	s := ""
	for _, n := range t.Servers() {
		s += fmt.Sprintf("s%d:%d ", n, t.SlotsFree(n))
	}
	for l := 0; l < t.Height(); l++ {
		s += fmt.Sprintf("L%d:%x ", l, t.LevelReserved(l))
	}
	return s
}

// TestGrantResizeGrowShrink drives grow and shrink through the
// Admitter and checks the transition is fully reversible.
func TestGrantResizeGrowShrink(t *testing.T) {
	tr := topology.New(resizeSpec())
	adm := NewAdmitter(tr, &fitResizer{firstFit{tree: tr}})
	idle := reservedProfile(tr)

	g0 := resizeGraph(4, 2)
	grant, err := adm.Place(&Request{ID: 1, Graph: g0, Model: g0})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if got := grant.Reservation().Placement().VMs(); got != 6 {
		t.Fatalf("placed %d VMs, want 6", got)
	}

	grown := resizeGraph(8, 3) // two tiers change in one call
	if err := grant.Resize(grown); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if got := grant.Reservation().Placement().VMs(); got != 11 {
		t.Errorf("after grow placed %d VMs, want 11", got)
	}

	shrunk := resizeGraph(2, 1)
	if err := grant.Resize(shrunk); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if got := grant.Reservation().Placement().VMs(); got != 3 {
		t.Errorf("after shrink placed %d VMs, want 3", got)
	}
	grant.Release()

	if got := reservedProfile(tr); got != idle {
		t.Errorf("ledger not clean after release:\n got %s\nwant %s", got, idle)
	}
}

// grower is the part of a grant the resize interleave needs; both the
// Admitter's grants and the serial reference's satisfy it.
type grower interface {
	Resize(*tag.Graph) error
	Release()
}

// TestGrantResizeMatchesSerialReference runs one seeded
// admit/resize/release interleave through the Admitter and through the
// serial reference admitter and requires identical outcomes and
// byte-identical final ledgers — resize commits the same merged delta
// on both sides, so the combiner must not change a single bit.
func TestGrantResizeMatchesSerialReference(t *testing.T) {
	// Non-dyadic guarantees, so a change in the ledger's float
	// operations shows up in its bits.
	graph := func(a, b int) *tag.Graph {
		g := tag.New("resizable")
		g.AddBidirectional(g.AddTier("a", a), g.AddTier("b", b), 100.3, 50.7)
		return g
	}
	run := func(admit func(*Request) (grower, error)) string {
		r := rand.New(rand.NewSource(7))
		var live []grower
		outcome := func(err error) byte {
			switch {
			case err == nil:
				return 'A'
			case errors.Is(err, ErrRejected):
				return 'R'
			}
			t.Fatalf("unexpected error: %v", err)
			return 0
		}
		var trace []byte
		for i := 0; i < 60; i++ {
			switch {
			case len(live) > 0 && r.Intn(3) == 0: // resize
				j := r.Intn(len(live))
				ng := graph(1+r.Intn(6), 1+r.Intn(3))
				trace = append(trace, 'z', outcome(live[j].Resize(ng)))
			case len(live) > 2 && r.Intn(3) == 0: // release
				j := r.Intn(len(live))
				live[j].Release()
				live = append(live[:j], live[j+1:]...)
				trace = append(trace, 'x')
			default: // admit
				g := graph(1+r.Intn(4), 1+r.Intn(2))
				grant, err := admit(&Request{ID: int64(i), Graph: g, Model: g})
				trace = append(trace, 'a', outcome(err))
				if err == nil {
					live = append(live, grant)
				}
			}
		}
		return string(trace)
	}
	refTree := topology.New(resizeSpec())
	ref := newSerialAdmitter(refTree, &fitResizer{firstFit{tree: refTree}})
	tr := topology.New(resizeSpec())
	adm := NewAdmitter(tr, &fitResizer{firstFit{tree: tr}})
	want := run(func(r *Request) (grower, error) { return ref.Place(r) })
	got := run(func(r *Request) (grower, error) { return adm.Place(r) })
	if got != want {
		t.Errorf("outcomes diverged:\nreference %s\nadmitter  %s", want, got)
	}
	if rp, ap := reservedProfile(refTree), reservedProfile(tr); rp != ap {
		t.Errorf("ledgers diverged:\nreference %s\nadmitter  %s", rp, ap)
	}
	if !reflect.DeepEqual(ledgerBits(refTree), ledgerBits(tr)) {
		t.Error("ledger bits diverged from the serial reference")
	}
}

// TestResizeTypedReasons checks the rejection taxonomy on the resize
// path: unsupported placers, structural changes, released grants, and
// capacity failures all carry their machine-readable Reason, and
// failures leave the ledger untouched.
func TestResizeTypedReasons(t *testing.T) {
	// A placer without Resize support rejects with ReasonUnsupported.
	tree := topology.New(resizeSpec())
	plain := NewAdmitter(tree, &firstFit{tree: tree})
	g := resizeGraph(2, 1)
	grant, err := plain.Place(&Request{ID: 1, Graph: g, Model: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := grant.Resize(resizeGraph(3, 1)); ReasonOf(err) != ReasonUnsupported {
		t.Errorf("resize on non-resizer: reason %q, want %q", ReasonOf(err), ReasonUnsupported)
	}
	grant.Release()

	tr := topology.New(resizeSpec())
	adm := NewAdmitter(tr, &fitResizer{firstFit{tree: tr}})
	grant, err = adm.Place(&Request{ID: 1, Graph: g, Model: g})
	if err != nil {
		t.Fatal(err)
	}

	// Structural change: different edge guarantees.
	bad := tag.New("resizable")
	a := bad.AddTier("a", 2)
	b := bad.AddTier("b", 1)
	bad.AddBidirectional(a, b, 999, 50)
	if err := grant.Resize(bad); ReasonOf(err) != ReasonInvalidRequest {
		t.Errorf("structural change: reason %q, want %q", ReasonOf(err), ReasonInvalidRequest)
	}

	// Capacity: growing past the tree must reject, wrap ErrRejected
	// for back-compat, and leave the ledger exactly as it was.
	before := reservedProfile(tr)
	err = grant.Resize(resizeGraph(1000, 1))
	if !errors.Is(err, ErrRejected) {
		t.Errorf("impossible grow: %v does not wrap ErrRejected", err)
	}
	if r := ReasonOf(err); !r.Capacity() {
		t.Errorf("impossible grow: reason %q is not capacity-class", r)
	}
	if after := reservedProfile(tr); before != after {
		t.Errorf("failed resize moved the ledger:\nbefore %s\nafter  %s", before, after)
	}

	// Released grants reject with ReasonReleased.
	grant.Release()
	if err := grant.Resize(resizeGraph(3, 1)); ReasonOf(err) != ReasonReleased {
		t.Errorf("resize after release: reason %q, want %q", ReasonOf(err), ReasonReleased)
	}
}

// TestConcurrentResizeRelease races Resize against Release (and a
// second Release) on the same grant: the operations must serialize,
// never double-free, and leave the ledger fully clean whichever order
// wins. It runs on the locked Admitter, the one admission path.
func TestConcurrentResizeRelease(t *testing.T) {
	t.Run("locked", func(t *testing.T) {
		tree := topology.New(resizeSpec())
		adm := NewAdmitter(tree, &fitResizer{firstFit{tree: tree}})
		idle := reservedProfile(tree)
		for round := 0; round < 50; round++ {
			g := resizeGraph(2, 1)
			grant, err := adm.Place(&Request{ID: int64(round), Graph: g, Model: g})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(3)
			go func() {
				defer wg.Done()
				// A resize may succeed or lose to the release; it must
				// never fail with anything but a typed error.
				if err := grant.Resize(resizeGraph(3, 2)); err != nil && ReasonOf(err) == "" {
					t.Errorf("untyped resize error: %v", err)
				}
			}()
			go func() { defer wg.Done(); grant.Release() }()
			go func() { defer wg.Done(); grant.Release() }()
			wg.Wait()
			if got := reservedProfile(tree); got != idle {
				t.Fatalf("round %d: ledger dirty after concurrent resize/release:\n got %s\nwant %s",
					round, got, idle)
			}
		}
	})
}
