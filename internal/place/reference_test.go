package place

import (
	"math"
	"sync"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// serialAdmitter is the test-only reference the Admitter is proven
// against, the way MaxMinReference serves the enforcement solver: one
// plain mutex around validate → Save → Place → RestoreSnapshot → Apply,
// with no combiner, no batching and no counters. Whatever the
// flat-combining pipeline does to amortize lock handoffs, a serial
// caller must see exactly this behaviour, down to the ledger bits.
type serialAdmitter struct {
	mu     sync.Mutex
	tree   *topology.Tree
	placer Placer
	ck     *topology.Snapshot
}

func newSerialAdmitter(tree *topology.Tree, p Placer) *serialAdmitter {
	return &serialAdmitter{tree: tree, placer: p, ck: tree.NewSnapshot()}
}

// serialGrant is a tenant committed through the reference admitter.
type serialGrant struct {
	s     *serialAdmitter
	res   *Reservation
	delta topology.Delta
	graph *tag.Graph
}

func (s *serialAdmitter) Place(req *Request) (*serialGrant, error) {
	if err := ValidateRequest(s.tree, req); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tree.Save(s.ck)
	res, err := s.placer.Place(req)
	s.tree.RestoreSnapshot(s.ck)
	if err != nil {
		return nil, err
	}
	d := res.Delta()
	s.tree.Apply(d)
	res.released = true
	return &serialGrant{s: s, res: res, delta: d, graph: req.Graph}, nil
}

func (g *serialGrant) Resize(newGraph *tag.Graph) error {
	steps, err := resizeSteps(g.graph, newGraph)
	if err != nil || len(steps) == 0 {
		return err
	}
	s := g.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tree.Save(s.ck)
	res, err := runResize(s.placer.(Resizer), g.res, g.graph, steps, HASpec{})
	s.tree.RestoreSnapshot(s.ck)
	if err != nil {
		return err
	}
	d := res.Delta()
	s.tree.Apply(topology.Merge(g.delta.Negate(), d))
	res.released = true
	g.res, g.delta, g.graph = res, d, newGraph
	return nil
}

func (g *serialGrant) Release() {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	g.s.tree.Apply(g.delta.Negate())
}

// ledgerBits flattens every mutable accumulator reachable through the
// exported API into float bit patterns, for byte-exact ledger
// comparison across trees.
func ledgerBits(tr *topology.Tree) []uint64 {
	var bits []uint64
	for n := topology.NodeID(0); int(n) < tr.NumNodes(); n++ {
		bits = append(bits, uint64(tr.SlotsFree(n)))
		out, in := tr.UplinkReserved(n)
		bits = append(bits, math.Float64bits(out), math.Float64bits(in))
		for r := range tr.Resources() {
			bits = append(bits, math.Float64bits(tr.ResourceFree(n, r)))
		}
	}
	return bits
}
