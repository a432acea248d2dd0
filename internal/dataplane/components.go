package dataplane

import (
	"math"
	"slices"

	"cloudmirror/internal/enforce"
	"cloudmirror/internal/netem"
)

// This file holds the component-incremental machinery behind
// Driver.Step: flow-state refresh, the per-link demand bounds, the
// union-find structure rebuild, and the per-component GP/RA/limiter
// solve.
//
// Weighted max-min decomposes exactly over connected components of the
// flow–link graph: a water-level round only inspects links carrying the
// solved flows and flows sharing those links, so flows with no chain of
// shared links cannot influence each other's rates. It decomposes
// further: a link that never saturates never freezes a flow and never
// sets the water level, so it couples nothing. The driver therefore
// unions tenants only through links that can bind (a tenant is
// indivisible: its guarantee partitioning spans all its pairs,
// colocated ones included) and solves each component in isolation —
// both in incremental mode and under FullRecompute, so the two modes
// differ only in which components they skip, never in arithmetic.
//
// A link can bind when the offered demands of the enforced pairs
// crossing it, Greedy counted as unbounded, sum to at least its
// capacity minus a margin of 1e-6 of the capacity plus 1 kbps. On any
// other link every solve leaves more than the solver's 1e-9 Mbps freeze
// epsilon of residual, in every subset of its tenants: RA's guarantee
// phase subtracts Σ min(demand, g) ≤ Σ demand, its spare phase caps each
// flow at demand − min(demand, g), and the achieved-rate solve caps each
// flow at min(demand, limit) — so the link carries at most Σ demand, and
// its residual stays above the margin, which dwarfs both the epsilon and
// the rounding of the sums. RA's guarantee-overflow check cannot fire on
// it either. Splitting tenants across such a link drops no check and
// moves no rate beyond the epsilon band a freeze decision may resolve
// in.
//
// The bound is exact and history-free, so the partition is a pure
// function of the installed tenants and their declared demands: each
// link keeps an int64 sum of its bounded pairs' demands, each rounded
// up to whole kbps, and a count of unbounded pairs (Greedy, or too
// large for the sum). Every change patches only the changed pairs'
// paths; the structure is rebuilt when a can-bind flag flips and on
// every change of a tenant's pair set (install, release, or a
// declaration with new pairs).

// maxBoundedKbps is the largest demand, in kbps, the per-link sums
// take (about 4.3 Tbps, beyond any link); larger demands count as
// unbounded. A sum cannot overflow before 2^31 pairs cross one link,
// far more than a shard holds.
const maxBoundedKbps = 1 << 32

// demandKbps rounds an offered load up to whole kbps; ok is false for
// a load the sums do not bound (Greedy or above maxBoundedKbps).
func demandKbps(mbps float64) (kbps int64, ok bool) {
	k := math.Ceil(mbps * 1000)
	if !(k <= maxBoundedKbps) {
		return 0, false
	}
	return int64(k), true
}

// linkBounds holds the per-link demand bounds the coupling rule reads,
// indexed by fabric LinkID.
type linkBounds struct {
	// kbps sums the rounded-up demands of the bounded enforced pairs
	// crossing the link; unbounded counts the others.
	kbps      []int64
	unbounded []int32
	// bindAt is the sum, in kbps, at which the link can bind: its
	// capacity minus the margin, rounded down.
	bindAt []int64
	// binds is each link's can-bind flag as of the last sync — the
	// adjacency the component rebuild unions over.
	binds []bool
	// touched lists, once each, the links whose sums changed since the
	// last sync (pending marks them).
	touched []netem.LinkID
	pending []bool
}

// newLinkBounds sizes the bounds for a fabric with the given link
// capacities, in Mbps. No link carries a pair yet, so only a link
// whose capacity is within the margin of zero can bind.
func newLinkBounds(caps []float64) linkBounds {
	b := linkBounds{
		kbps:      make([]int64, len(caps)),
		unbounded: make([]int32, len(caps)),
		bindAt:    make([]int64, len(caps)),
		binds:     make([]bool, len(caps)),
		pending:   make([]bool, len(caps)),
	}
	for l, c := range caps {
		capKbps := c * 1000
		switch at := math.Floor(capKbps - (1e-6*capKbps + 1)); {
		case math.IsNaN(at):
			b.bindAt[l] = math.MinInt64 // no usable capacity: always couple
		case at >= math.MaxInt64/2:
			b.bindAt[l] = math.MaxInt64 // no finite sum reaches it
		default:
			b.bindAt[l] = int64(at)
		}
		b.binds[l] = b.canBind(netem.LinkID(l))
	}
	return b
}

// canBind reports whether the link's current demand bound reaches its
// capacity minus the margin.
func (b *linkBounds) canBind(l netem.LinkID) bool {
	return b.unbounded[l] > 0 || b.kbps[l] >= b.bindAt[l]
}

// add patches the bounds of every link on path by sign (+1 or −1)
// times one pair's offered load.
func (b *linkBounds) add(path []netem.LinkID, mbps float64, sign int64) {
	k, ok := demandKbps(mbps)
	for _, l := range path {
		if ok {
			b.kbps[l] += sign * k
		} else {
			b.unbounded[l] += int32(sign)
		}
		if !b.pending[l] {
			b.pending[l] = true
			b.touched = append(b.touched, l)
		}
	}
}

// addTenant patches the bounds by sign times every enforced pair of t.
func (b *linkBounds) addTenant(t *tenant, sign int64) {
	for i, pr := range t.pairs {
		b.add(t.paths[i], pr.Demand, sign)
	}
}

// sync brings the can-bind flags of the links patched since the last
// sync up to date and reports whether any flag flipped.
func (b *linkBounds) sync() bool {
	changed := false
	for _, l := range b.touched {
		b.pending[l] = false
		if c := b.canBind(l); c != b.binds[l] {
			b.binds[l] = c
			changed = true
		}
	}
	b.touched = b.touched[:0]
	return changed
}

// component is one connected set of tenants in the coupling graph.
type component struct {
	// members lists tenant keys in admission order.
	members []int64
}

// refreshFlows rebuilds a tenant's derived flow state from its demands
// and binding: enforced pairs (tenant-local IDs), their fabric paths,
// the deduplicated link set, and the demand→pair index, moving the
// tenant's contribution to the link bounds from the old pairs to the
// new. Limiter values carry over for pairs present before and after
// (by (Src, Dst) key); pairs new to the declaration start unseen (NaN),
// which the solve initializes at the pair's guarantee.
func (d *Driver) refreshFlows(t *tenant) {
	if t.demands == nil {
		t.demands = defaultDemands(t.bind.Deployment())
	}
	d.bounds.addTenant(t, -1)
	// Save the previous pair keys and limits for the carry-over merge.
	// Both pair lists ascend by (Src, Dst) — demands are kept sorted —
	// so a linear merge aligns them.
	oldPairs := append([]enforce.Pair(nil), t.pairs...)
	oldLimits := append([]float64(nil), t.limits...)

	t.pairIdx = t.pairIdx[:0]
	t.pairs = t.pairs[:0]
	t.paths = t.paths[:0]
	t.links = t.links[:0]
	t.limits = t.limits[:0]
	for _, dm := range t.demands {
		path := d.fab.Path(t.bind.Server(dm.Src), t.bind.Server(dm.Dst))
		if len(path) == 0 {
			t.pairIdx = append(t.pairIdx, -1)
			continue
		}
		t.pairIdx = append(t.pairIdx, int32(len(t.pairs)))
		t.pairs = append(t.pairs, enforce.Pair{Src: dm.Src, Dst: dm.Dst, Demand: dm.Mbps})
		t.paths = append(t.paths, path)
		t.links = append(t.links, path...)
	}
	slices.Sort(t.links)
	t.links = slices.Compact(t.links)
	d.bounds.addTenant(t, 1)

	// Carry limiter state for surviving pairs.
	oi := 0
	for _, pr := range t.pairs {
		for oi < len(oldPairs) && (oldPairs[oi].Src < pr.Src ||
			(oldPairs[oi].Src == pr.Src && oldPairs[oi].Dst < pr.Dst)) {
			oi++
		}
		if oi < len(oldPairs) && oldPairs[oi].Src == pr.Src && oldPairs[oi].Dst == pr.Dst {
			t.limits = append(t.limits, oldLimits[oi])
			oi++
		} else {
			t.limits = append(t.limits, math.NaN())
		}
	}
	t.flowsDirty = false
	t.fresh = true
	t.settled = false
}

// rebuildComponents recomputes the connected components of the
// coupling graph with a union-find pass that joins tenants crossing
// the same link that can bind. A component whose membership is
// identical to its previous incarnation keeps its members' settled
// state; grown, shrunk, merged, or split components lose it, because
// the capacity their members compete for changed.
func (d *Driver) rebuildComponents() {
	n := len(d.order)
	d.ufParent = d.ufParent[:0]
	for i := 0; i < n; i++ {
		d.ufParent = append(d.ufParent, int32(i))
	}
	find := func(x int32) int32 {
		for d.ufParent[x] != x {
			d.ufParent[x] = d.ufParent[d.ufParent[x]] // path halving
			x = d.ufParent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			d.ufParent[rb] = ra
		}
	}

	// Tenants crossing a link that can bind share a component: stamp
	// each such link with its first owner this rebuild, union later
	// owners into it.
	if len(d.linkStamp) < len(d.fabCaps) {
		d.linkStamp = make([]uint64, len(d.fabCaps))
		d.linkOwner = make([]int32, len(d.fabCaps))
		d.linkGen = 0
	}
	d.linkGen++
	for ti, key := range d.order {
		for _, l := range d.tenants[key].links {
			if !d.bounds.binds[l] {
				continue
			}
			if d.linkStamp[l] == d.linkGen {
				union(int32(ti), d.linkOwner[l])
			} else {
				d.linkStamp[l] = d.linkGen
				d.linkOwner[l] = int32(ti)
			}
		}
	}

	// Group into components, ordered by first member (admission order),
	// and detect carried-over components: same members, same size as
	// their shared previous component — nothing joined, left, or
	// released, so the cached fixed point still holds.
	prevSizes := append([]int(nil), d.compSizes...)
	for i := range d.comps {
		d.comps[i].members = d.comps[i].members[:0]
	}
	compOf := make(map[int32]int, 8)
	nc := 0
	for ti, key := range d.order {
		r := find(int32(ti))
		ci, ok := compOf[r]
		if !ok {
			ci = nc
			compOf[r] = ci
			nc++
			if ci == len(d.comps) {
				d.comps = append(d.comps, component{})
			}
		}
		d.comps[ci].members = append(d.comps[ci].members, key)
	}
	d.comps = d.comps[:nc]
	d.compSizes = d.compSizes[:0]
	for ci := range d.comps {
		members := d.comps[ci].members
		d.compSizes = append(d.compSizes, len(members))
		oldc := d.tenants[members[0]].comp
		carried := oldc >= 0 && oldc < len(prevSizes) && prevSizes[oldc] == len(members)
		if carried {
			for _, key := range members {
				if d.tenants[key].comp != oldc {
					carried = false
					break
				}
			}
		}
		for _, key := range members {
			t := d.tenants[key]
			t.comp = ci
			if !carried {
				t.settled = false
			}
		}
	}
}

// solveCtx is the pooled per-goroutine scratch one component solve
// uses: the RA and achieved-rates solver plus the gathered pair lists.
type solveCtx struct {
	ra         enforce.RA
	solver     netem.Solver
	pairs      []enforce.Pair
	paths      [][]netem.LinkID
	guarantees []float64
	newLimits  []float64
	flows      []netem.Flow
	rates      []float64
}

// solveComponent runs one control period for one component: GP per
// member tenant, a component-wide work-conserving RA, the alpha step of
// every limiter toward its target, and the achieved-rates solve under
// the new limits. Results land in the member tenants' caches; settled
// is set when the solve reproduced limits and rates bit-for-bit, which
// makes the next solve provably identical and therefore skippable.
func (d *Driver) solveComponent(ctx *solveCtx, c *component) error {
	// Gather the component's pairs, paths, and per-tenant guarantees.
	ctx.pairs = ctx.pairs[:0]
	ctx.paths = ctx.paths[:0]
	ctx.guarantees = ctx.guarantees[:0]
	for _, key := range c.members {
		t := d.tenants[key]
		ctx.pairs = append(ctx.pairs, t.pairs...)
		ctx.paths = append(ctx.paths, t.paths...)
		ctx.guarantees = enforce.AppendGuarantees(ctx.guarantees, t.gp, t.pairs)
	}

	// RA: work-conserving targets over the component's links.
	targets, err := ctx.ra.Alloc(d.fab.Network(), ctx.pairs, ctx.paths, ctx.guarantees)
	if err != nil {
		return err
	}

	// Limiters: alpha of the way toward the target; unseen pairs (NaN)
	// start at their guarantee.
	alpha := d.cfg.alpha()
	ctx.newLimits = ctx.newLimits[:0]
	off := 0
	for _, key := range c.members {
		t := d.tenants[key]
		for j := range t.pairs {
			cur := t.limits[j]
			if math.IsNaN(cur) {
				cur = ctx.guarantees[off+j]
			}
			ctx.newLimits = append(ctx.newLimits, cur+alpha*(targets[off+j]-cur))
		}
		off += len(t.pairs)
	}

	// Achieved rates this period: guarantee-weighted max-min under the
	// new limits on the full-capacity fabric.
	ctx.flows = ctx.flows[:0]
	for i, pr := range ctx.pairs {
		ctx.flows = append(ctx.flows, netem.Flow{
			Path:   ctx.paths[i],
			Demand: pr.Demand,
			Limit:  ctx.newLimits[i],
			Weight: ctx.guarantees[i] + 1,
		})
	}
	ctx.rates, err = ctx.solver.MaxMinCaps(d.fabCaps, ctx.flows, ctx.rates[:0])
	if err != nil {
		return err
	}

	// Fold results into the member caches and decide settledness: a
	// component whose limits and rates came out bit-identical to the
	// previous period is at its fixed point — the solve is a pure
	// function of state it just reproduced, so the next period would
	// recompute exactly this, and may be skipped.
	off = 0
	settled := true
	for _, key := range c.members {
		t := d.tenants[key]
		np := len(t.pairs)
		if t.fresh || len(t.rates) != np {
			settled = false
		} else {
			for j := 0; j < np; j++ {
				if math.Float64bits(t.limits[j]) != math.Float64bits(ctx.newLimits[off+j]) ||
					math.Float64bits(t.rates[j]) != math.Float64bits(ctx.rates[off+j]) {
					settled = false
					break
				}
			}
		}
		t.guarantees = append(t.guarantees[:0], ctx.guarantees[off:off+np]...)
		t.limits = append(t.limits[:0], ctx.newLimits[off:off+np]...)
		t.rates = append(t.rates[:0], ctx.rates[off:off+np]...)
		t.fresh = false
		t.dirty = false
		off += np
	}
	for _, key := range c.members {
		d.tenants[key].settled = settled
	}
	return nil
}
