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

// pipelineRun is one seeded drive's observable output: the
// admit/reject transcript and the ledger's float bit patterns taken
// mid-run, while tenants still hold slots and bandwidth.
type pipelineRun struct {
	trace string
	bits  []uint64
}

// releaser is the part of a grant the drive needs; both the Admitter's
// grants and the serial reference's satisfy it.
type releaser interface{ Release() }

// fracTenant is a small two-tier tenant with non-dyadic guarantees, so
// any change in the number or order of float operations the commit
// path performs on the ledger shows up in its bits (integer guarantees
// add and subtract exactly and would hide it).
func fracTenant(i int) *tag.Graph {
	g := tag.New(fmt.Sprintf("frac-%d", i))
	a := g.AddTier("a", 1+i%3)
	b := g.AddTier("b", 1+(i/3)%3)
	g.AddEdge(a, b, 10.1+0.37*float64(i%7), 9.3+0.11*float64(i%5))
	return g
}

// drivePipeline runs a fixed seeded admit/churn sequence through admit
// and captures the transcript plus the ledger bits before draining.
func drivePipeline(t *testing.T, admit func(*Request) (releaser, error), tr *topology.Tree) pipelineRun {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	const ops = 400
	trace := make([]byte, 0, ops)
	var live []releaser
	for i := 0; i < ops; i++ {
		g := fracTenant(r.Intn(50))
		grant, err := admit(&Request{ID: int64(i), Graph: g, Model: g})
		if err != nil {
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("op %d: %v", i, err)
			}
			trace = append(trace, 'R')
		} else {
			trace = append(trace, 'A')
			live = append(live, grant)
		}
		if len(live) > 0 && (len(live) > 6 || r.Intn(3) == 0) {
			j := r.Intn(len(live))
			live[j].Release()
			live = append(live[:j], live[j+1:]...)
		}
	}
	out := pipelineRun{trace: string(trace), bits: ledgerBits(tr)}
	for _, g := range live {
		g.Release()
	}
	return out
}

// TestCommitPipelineDeterminism is the correctness gate of the
// flat-combining commit pipeline, wired into `make determinism` at
// -cpu=1,4,8: on a seeded sequence, the Admitter must be
// byte-identical to the serial reference admitter — the same
// admit/reject transcript and Float64bits-identical ledger
// accumulators while tenants are still live — and repeated runs must
// reproduce themselves exactly regardless of GOMAXPROCS.
func TestCommitPipelineDeterminism(t *testing.T) {
	refTree := testTree()
	ref := newSerialAdmitter(refTree, &firstFit{tree: refTree})
	want := drivePipeline(t, func(r *Request) (releaser, error) { return ref.Place(r) }, refTree)
	if len(want.trace) == 0 || !containsBoth(want.trace) {
		t.Fatalf("degenerate workload: trace %q", want.trace)
	}
	for run := 0; run < 3; run++ {
		tr := testTree()
		adm := NewAdmitter(tr, &firstFit{tree: tr})
		got := drivePipeline(t, func(r *Request) (releaser, error) { return adm.Place(r) }, tr)
		if got.trace != want.trace {
			t.Fatalf("run %d: pipeline transcript diverges from the serial reference:\nreference %s\npipeline  %s",
				run, want.trace, got.trace)
		}
		if !reflect.DeepEqual(got.bits, want.bits) {
			t.Fatalf("run %d: pipeline ledger bits diverge from the serial reference mid-run", run)
		}
	}
}

// containsBoth reports whether a transcript exercises both outcomes.
func containsBoth(trace string) bool {
	var a, r bool
	for i := 0; i < len(trace); i++ {
		a = a || trace[i] == 'A'
		r = r || trace[i] == 'R'
	}
	return a && r
}

// TestCommitPipelineMixedStress hammers one combiner with every
// lifecycle verb at once — single admits, batched admits, resizes, and
// releases from concurrent goroutines — and then checks conservation:
// no non-rejection failures, every admission released, and the tree
// drained back to pristine. Run under -race in CI, it is the memory-
// safety gate for the flat-combining queue and the scratch pools
// behind it.
func TestCommitPipelineMixedStress(t *testing.T) {
	tr := testTree()
	adm := NewAdmitter(tr, &fitResizer{firstFit{tree: tr}})

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 100))
			var live []*Admitted
			release := func(j int) {
				live[j].Release()
				live = append(live[:j], live[j+1:]...)
			}
			for i := 0; i < iters; i++ {
				id := int64(w*iters + i)
				switch r.Intn(4) {
				case 0: // batched admits through the combiner's batch path
					n := 2 + r.Intn(3)
					reqs := make([]*Request, n)
					for k := range reqs {
						g := stressTenant(r.Intn(50))
						reqs[k] = &Request{ID: id<<8 | int64(k), Graph: g, Model: g}
					}
					grants, errs := adm.AdmitBatch(reqs)
					for k, g := range grants {
						if g != nil {
							live = append(live, g)
						} else if !errors.Is(errs[k], ErrRejected) {
							t.Errorf("worker %d: batch error: %v", w, errs[k])
							return
						}
					}
				case 1: // resize a live grant up or down
					if len(live) == 0 {
						continue
					}
					ng := stressTenant(r.Intn(50))
					if err := live[r.Intn(len(live))].Resize(ng); err != nil && !errors.Is(err, ErrRejected) {
						t.Errorf("worker %d: resize error: %v", w, err)
						return
					}
				default: // single admit
					g := stressTenant(r.Intn(50))
					grant, err := adm.Place(&Request{ID: id, Graph: g, Model: g})
					if err != nil {
						if !errors.Is(err, ErrRejected) {
							t.Errorf("worker %d: admit error: %v", w, err)
							return
						}
						if len(live) > 0 {
							release(0)
						}
						continue
					}
					live = append(live, grant)
				}
				for len(live) > 5 {
					release(r.Intn(len(live)))
				}
			}
			for _, g := range live {
				g.Release()
			}
		}(w)
	}
	wg.Wait()

	pristine(t, tr)
	st := adm.Stats()
	if st.Failed != 0 {
		t.Errorf("%d non-rejection failures", st.Failed)
	}
	if st.Admitted != st.Released {
		t.Errorf("admitted %d but released %d", st.Admitted, st.Released)
	}
	if st.Admitted == 0 {
		t.Error("stress admitted nothing")
	}
}
