package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/workload"
)

// The tenant pool is the bing-like pool cmd/admbench uses at its
// default seed, scaled so the largest per-VM demand is bmax. It is the
// same for every workload seed: pools of different seeds differ in how
// tenants share links, which moves a control period's cost by more
// than an order of magnitude. The workload seed picks tenants from the
// pool and drives every other draw.
const (
	poolSeed = 1
	bmax     = 800
)

// setupSeed drives set-up: serve-http's pre-fill, the WAL segment's
// fill and enforce-fleet's initial fleet are the same for every workload
// seed, which drives only the measured operations. Which tenants a
// fill holds, and so which share links, moved enforce-fleet's period
// cost by a factor of two or more between seeds, and set-up times
// likewise.
const setupSeed = 1

// tenantPool builds the tenant pool.
func tenantPool() []*tag.Graph {
	pool := workload.BingLike(poolSeed)
	workload.ScaleToBmax(pool, bmax)
	return pool
}

// opKind enumerates the generated client operations.
type opKind uint8

const (
	opAdmit opKind = iota
	opBatch
	opResize
	opRelease
	opGet
)

var opNames = [...]string{"admit", "batch", "resize", "release", "get"}

func (k opKind) String() string { return opNames[k] }

// op is one generated client operation. It names its inputs by pool
// index and selector numbers, never by live state: which grant a
// resize or release hits is decided when it runs, so the generated
// sequence is a pure function of the seed.
type op struct {
	Kind opKind
	// Pools are the pool indices of the TAGs an admit (one) or a batch
	// (several) requests.
	Pools []int
	// Pick selects the live grant a resize, release or get targets.
	Pick uint32
	// Tier selects the resized tier among the TAG's placed tiers, and
	// Delta is the change in its size.
	Tier  uint32
	Delta int
	// U decides whether a release departs: it does when
	// U*departRef < live tenants, so departures are proportional to
	// the live population (exponential lifetimes), and a placer that
	// packs more tenants also sees more of them leave.
	U float64
	// Due is the open-loop send time, relative to the phase start
	// (zero in closed loops).
	Due time.Duration
}

// appendBinary encodes the op for the determinism test.
func (o op) appendBinary(b []byte) []byte {
	b = append(b, byte(o.Kind), byte(len(o.Pools)))
	for _, p := range o.Pools {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	b = binary.LittleEndian.AppendUint32(b, o.Pick)
	b = binary.LittleEndian.AppendUint32(b, o.Tier)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(o.Delta)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.U))
	return binary.LittleEndian.AppendUint64(b, uint64(o.Due))
}

// mix weighs the operation kinds of a phase, in opKind order.
type mix [5]float64

// opGen generates one phase's operation stream.
type opGen struct {
	r         *rand.Rand
	mix       mix
	bag       bag
	batchSize int
	// rate is the open-loop arrival rate in ops per second; zero
	// means a closed loop (no due times).
	rate float64
	due  time.Duration
}

// newOpGen seeds a stream: each (seed, stream) pair is independent.
func newOpGen(seed int64, stream int64, m mix, poolSize, batchSize int, rate float64) *opGen {
	return &opGen{
		r:         rand.New(rand.NewSource(seed*1_000_003 + stream)),
		mix:       m,
		bag:       bag{size: poolSize},
		batchSize: batchSize,
		rate:      rate,
	}
}

// bag draws pool indices in shuffled rounds: every run of size
// consecutive draws holds each index once. Seeds then change the order
// tenants arrive in, not the mix of tenants a run sees, which would
// otherwise move results between seeds by more than any bound (the
// pool's largest tenant alone is a tenth of a shard).
type bag struct {
	size int
	perm []int
}

func (b *bag) draw(r *rand.Rand) int {
	if len(b.perm) == 0 {
		b.perm = r.Perm(b.size)
	}
	i := b.perm[0]
	b.perm = b.perm[1:]
	return i
}

// next draws the next operation. Every field is drawn on every call,
// whatever the kind, so the stream stays aligned across kinds.
func (g *opGen) next() op {
	x := g.r.Float64()
	kind := opKind(len(g.mix) - 1)
	for k, w := range g.mix {
		if x < w {
			kind = opKind(k)
			break
		}
		x -= w
	}
	o := op{Kind: kind, Pick: g.r.Uint32(), Tier: g.r.Uint32(), U: g.r.Float64()}
	o.Delta = []int{-2, -1, 1, 2}[g.r.Intn(4)]
	n := 1
	if kind == opBatch {
		n = g.batchSize
	}
	for i := 0; i < n; i++ {
		o.Pools = append(o.Pools, g.bag.draw(g.r))
	}
	if g.rate > 0 {
		g.due += time.Duration(g.r.ExpFloat64() / g.rate * float64(time.Second))
		o.Due = g.due
	}
	return o
}

// tenant is one live grant as a client sees it.
type tenant struct {
	// id is the grant's URL id (serve-http); grant the in-process handle.
	id    string
	grant guarantee.Grant
	// graph is the TAG the grant currently guarantees.
	graph *tag.Graph
	// plan caches the tenant's demand pairs (enforce-fleet).
	plan []guarantee.Demand
	busy bool
}

// liveSet is the client's registry of live grants. A tenant an op
// holds is marked busy, so two clients never resize or release one
// grant at once.
type liveSet struct {
	mu sync.Mutex
	ts []*tenant
}

func (l *liveSet) add(t *tenant) {
	l.mu.Lock()
	l.ts = append(l.ts, t)
	l.mu.Unlock()
}

func (l *liveSet) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ts)
}

// take claims the first idle tenant at or after pick (mod the live
// count). With remove it leaves the set (a release); otherwise it is
// marked busy until put. Nil when every tenant is busy or none lives.
func (l *liveSet) take(pick uint32, remove bool) *tenant {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.ts)
	for k := 0; k < n; k++ {
		i := (int(pick%uint32(n)) + k) % n
		t := l.ts[i]
		if t.busy {
			continue
		}
		if remove {
			l.ts[i] = l.ts[n-1]
			l.ts = l.ts[:n-1]
		} else {
			t.busy = true
		}
		return t
	}
	return nil
}

// put returns a tenant take claimed.
func (l *liveSet) put(t *tenant) {
	l.mu.Lock()
	t.busy = false
	l.mu.Unlock()
}

// drain removes and returns every tenant.
func (l *liveSet) drain() []*tenant {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := l.ts
	l.ts = nil
	return ts
}

// departs reports whether a release op fires at the current live count.
func departs(o op, live int, ref float64) bool {
	return o.U*ref < float64(live)
}

// resized returns the tenant's TAG with the op's tier changed by its
// delta (sizes stay at least 1).
func resized(g *tag.Graph, o op) (*tag.Graph, error) {
	var placed []int
	for t := 0; t < g.Tiers(); t++ {
		if !g.Tier(t).External {
			placed = append(placed, t)
		}
	}
	t := placed[int(o.Tier%uint32(len(placed)))]
	n := g.TierSize(t) + o.Delta
	if n < 1 {
		n = g.TierSize(t) + 1
	}
	return g.WithTierSize(t, n)
}

// demandFactors are the multiples of a pair's hose bound a redeclare
// offers: some flows under their guarantee, some bursting past it.
var demandFactors = []float64{0.25, 0.5, 1, 2}

// maxPairs caps the flows one tenant declares, so a control period's
// cost is linear in tenants rather than quadratic in their sizes.
const maxPairs = 32

// demandPairs enumerates up to maxPairs TAG-permitted VM pairs of g in
// the dataplane's tier-major VM numbering, each with its bound
// min(S, R) summed over parallel edges.
func demandPairs(g *tag.Graph) []guarantee.Demand {
	first := make([]int, g.Tiers())
	id := 0
	for t := 0; t < g.Tiers(); t++ {
		first[t] = id
		if !g.Tier(t).External {
			id += g.TierSize(t)
		}
	}
	type pair struct{ s, d int }
	var cands []pair
	seen := make(map[pair]bool)
	for _, e := range g.Edges() {
		if g.Tier(e.From).External || g.Tier(e.To).External {
			continue
		}
		for i := 0; i < g.TierSize(e.From); i++ {
			for j := 0; j < g.TierSize(e.To); j++ {
				p := pair{first[e.From] + i, first[e.To] + j}
				if p.s == p.d || seen[p] {
					continue
				}
				seen[p] = true
				cands = append(cands, p)
			}
		}
	}
	if len(cands) > maxPairs {
		sampled := make([]pair, maxPairs)
		for i := range sampled {
			sampled[i] = cands[i*len(cands)/maxPairs]
		}
		cands = sampled
	}
	tierOf := func(vm int) int {
		t := len(first) - 1
		for t > 0 && (first[t] > vm || g.Tier(t).External) {
			t--
		}
		return t
	}
	var out []guarantee.Demand
	for _, p := range cands {
		ts, td := tierOf(p.s), tierOf(p.d)
		var snd, rcv float64
		for _, e := range g.Edges() {
			if e.From == ts && e.To == td {
				snd += e.S
				rcv += e.R
			}
		}
		if b := math.Min(snd, rcv); b > 0 {
			out = append(out, guarantee.Demand{Src: p.s, Dst: p.d, Mbps: b})
		}
	}
	return out
}

// drawDemands scales each pair's bound by a random factor.
func drawDemands(r *rand.Rand, pairs []guarantee.Demand) []guarantee.Demand {
	out := make([]guarantee.Demand, len(pairs))
	for i, p := range pairs {
		out[i] = guarantee.Demand{Src: p.Src, Dst: p.Dst, Mbps: demandFactors[r.Intn(len(demandFactors))] * p.Mbps}
	}
	return out
}
