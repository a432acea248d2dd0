package netem

import (
	"fmt"
	"math"
)

// MaxMinReference is the original O(flows×links) progressive-filling
// allocator: every water-level round rescans every flow×link to rebuild
// per-link residual capacity and unfrozen weight. It is retained,
// unmodified, as the test-only correctness oracle for Solver — the
// event-driven fast path must return Float64bits-identical rates for
// every input.
func (n *Network) MaxMinReference(flows []Flow) ([]float64, error) {
	for i, f := range flows {
		for _, l := range f.Path {
			if int(l) < 0 || int(l) >= len(n.caps) {
				return nil, fmt.Errorf("%w: flow %d references unknown link %d (network has %d)",
					ErrBadInput, i, l, len(n.caps))
			}
		}
	}
	rates := make([]float64, len(flows))
	frozen := make([]bool, len(flows))
	active := 0
	for i, f := range flows {
		if f.cap() <= 0 || len(f.Path) == 0 {
			frozen[i] = true
			rates[i] = math.Max(f.cap(), 0)
			if len(f.Path) == 0 && math.IsInf(f.cap(), 1) {
				rates[i] = 0 // no path, unbounded cap: undefined; send nothing
			}
			continue
		}
		active++
	}

	theta := 0.0
	for active > 0 {
		// Remaining capacity and unfrozen weight per link.
		remaining := append([]float64(nil), n.caps...)
		weightOn := make([]float64, len(n.caps))
		for i, f := range flows {
			for _, l := range f.Path {
				if frozen[i] {
					remaining[l] -= rates[i]
				} else {
					weightOn[l] += f.weight()
				}
			}
		}

		// Next event: a link saturates or a flow reaches its cap. With
		// frozen load already subtracted from remaining, link l
		// saturates at the absolute water level remaining/weightOn
		// (every unfrozen flow transmits weight·θ in total, not
		// incrementally).
		next := math.Inf(1)
		for l := range n.caps {
			if weightOn[l] > 0 {
				t := math.Max(remaining[l], 0) / weightOn[l]
				if t < theta {
					t = theta
				}
				if t < next {
					next = t
				}
			}
		}
		for i, f := range flows {
			if !frozen[i] {
				if t := f.cap() / f.weight(); t < next {
					next = t
				}
			}
		}
		if math.IsInf(next, 1) {
			break // defensive: nothing constrains the remaining flows
		}

		// Advance the water level and freeze whatever bound.
		theta = next
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			rates[i] = f.weight() * theta
		}
		// Recompute saturation at the new level.
		for l := range remaining {
			remaining[l] = n.caps[l]
		}
		for i, f := range flows {
			for _, l := range f.Path {
				remaining[l] -= rates[i]
			}
		}
		const eps = 1e-9
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			if rates[i] >= f.cap()-eps {
				rates[i] = f.cap()
				frozen[i] = true
				active--
				continue
			}
			for _, l := range f.Path {
				if remaining[l] <= eps {
					frozen[i] = true
					active--
					break
				}
			}
		}
	}
	return rates, nil
}
