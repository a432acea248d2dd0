package dataplane

import (
	"math"
	"testing"
)

// The all-links partition is the coupling rule the driver used before
// components were scoped to links that can bind: tenants crossing any
// common fabric link share a component. It is kept here, test-only, as
// the reference the demand-bounded partition is compared against —
// the way internal/netem keeps MaxMinReference for its solver.

// allLinksPartition returns the all-links components of d's current
// flow state: member keys in admission order, components ordered by
// first member. Call it after a Step, when flow state is materialized.
func allLinksPartition(d *Driver) [][]int64 {
	parent := make([]int, len(d.order))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	owner := make(map[int32]int)
	for ti, key := range d.order {
		for _, l := range d.tenants[key].links {
			if o, ok := owner[int32(l)]; ok {
				if ra, rb := find(o), find(ti); ra != rb {
					parent[rb] = ra
				}
			} else {
				owner[int32(l)] = ti
			}
		}
	}
	var comps [][]int64
	compOf := make(map[int]int)
	for ti, key := range d.order {
		r := find(ti)
		ci, ok := compOf[r]
		if !ok {
			ci = len(comps)
			compOf[r] = ci
			comps = append(comps, nil)
		}
		comps[ci] = append(comps[ci], key)
	}
	return comps
}

// driverPartition returns d's own components in the same shape.
func driverPartition(d *Driver) [][]int64 {
	comps := make([][]int64, len(d.comps))
	for i, c := range d.comps {
		comps[i] = append([]int64(nil), c.members...)
	}
	return comps
}

// coupleAllLinks makes d step under the all-links partition: a binding
// threshold no sum can fall below makes every link bind, whatever the
// demands, so the driver couples tenants through every shared link.
// Call it before the first event.
func coupleAllLinks(d *Driver) {
	for l := range d.bounds.bindAt {
		d.bounds.bindAt[l] = math.MinInt64
		d.bounds.binds[l] = true
	}
}

// requireBoundsExact recomputes every link's demand bound from scratch
// and requires the driver's patched bounds and can-bind flags to match
// it: the bounds are a pure function of the installed tenants' declared
// demands, whatever sequence of patches produced them. Call it after a
// Step, when flow state and flags are up to date.
func requireBoundsExact(t *testing.T, d *Driver) {
	t.Helper()
	kbps := make([]int64, len(d.fabCaps))
	unbounded := make([]int32, len(d.fabCaps))
	for _, key := range d.order {
		tn := d.tenants[key]
		for i, pr := range tn.pairs {
			k, ok := demandKbps(pr.Demand)
			for _, l := range tn.paths[i] {
				if ok {
					kbps[l] += k
				} else {
					unbounded[l]++
				}
			}
		}
	}
	b := &d.bounds
	for l := range kbps {
		binds := unbounded[l] > 0 || kbps[l] >= b.bindAt[l]
		if b.kbps[l] != kbps[l] || b.unbounded[l] != unbounded[l] || b.binds[l] != binds {
			t.Fatalf("link %d: bound (%d kbps, %d unbounded, binds %v), recomputed (%d, %d, %v)",
				l, b.kbps[l], b.unbounded[l], b.binds[l], kbps[l], unbounded[l], binds)
		}
	}
}
