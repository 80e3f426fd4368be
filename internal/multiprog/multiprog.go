// Package multiprog implements the paper's multi-application tailoring
// study (Figure 13): for every subset of the benchmark suite it computes
// the gate count of a bespoke processor supporting all programs in the
// subset (the union of their exercisable gates), and for the extreme
// subsets at each size it runs the full physical flow to get area and
// power.
package multiprog

import (
	"math/bits"

	"bespoke/internal/cells"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/layout"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
)

// bitset is a fixed-size gate set.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i/64] |= 1 << uint(i%64) }
func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}
func (b bitset) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Range is the min/max over all size-N subsets (Figure 13's intervals).
type Range struct {
	N                  int
	MinGates, MaxGates int
	// MinSubset/MaxSubset are the bitmask subsets achieving the bounds.
	MinSubset, MaxSubset uint32
	// Areas/powers filled by MeasureExtremes (normalized to baseline).
	MinArea, MaxArea   float64
	MinPower, MaxPower float64
}

// GateRanges enumerates every subset of the analyzed programs and
// returns, per subset size, the min/max number of kept gates. Analyses
// must share the baseline core's gate numbering (they do: elaboration is
// deterministic).
func GateRanges(analyses []*symexec.Result, numGates int) []Range {
	n := len(analyses)
	sets := make([]bitset, n)
	for i, a := range analyses {
		sets[i] = newBitset(numGates)
		for g, t := range a.Toggled {
			if t {
				sets[i].set(g)
			}
		}
	}
	// Constant-conflict pairs: gates untoggled in two programs but at
	// different constants must be kept in designs containing both.
	// Precompute pairwise conflict sets.
	conflict := make([][]bitset, n)
	for i := range conflict {
		conflict[i] = make([]bitset, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cs := newBitset(numGates)
			for g := range analyses[i].Toggled {
				if !analyses[i].Toggled[g] && !analyses[j].Toggled[g] &&
					analyses[i].ConstVal[g] != analyses[j].ConstVal[g] {
					cs.set(g)
				}
			}
			conflict[i][j] = cs
		}
	}

	out := make([]Range, n)
	for k := range out {
		out[k] = Range{N: k + 1, MinGates: 1 << 30}
	}
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		size := bits.OnesCount32(mask)
		u := newBitset(numGates)
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 0 {
				continue
			}
			u.or(sets[i])
			for j := i + 1; j < n; j++ {
				if mask>>uint(j)&1 == 1 {
					u.or(conflict[i][j])
				}
			}
		}
		c := u.count()
		r := &out[size-1]
		if c < r.MinGates {
			r.MinGates, r.MinSubset = c, mask
		}
		if c > r.MaxGates {
			r.MaxGates, r.MaxSubset = c, mask
		}
	}
	return out
}

// unionResult merges analyses for the programs selected by mask.
func unionResult(analyses []*symexec.Result, mask uint32) *symexec.Result {
	var u *symexec.Result
	for i, a := range analyses {
		if mask>>uint(i)&1 == 0 {
			continue
		}
		if u == nil {
			u = &symexec.Result{
				Toggled:  append([]bool(nil), a.Toggled...),
				ConstVal: append([]logic.V(nil), a.ConstVal...),
			}
			continue
		}
		u.Merge(a)
	}
	return u
}

// CutForSubset produces the bespoke core for a subset of programs.
func CutForSubset(analyses []*symexec.Result, mask uint32) (*cpu.Core, error) {
	u := unionResult(analyses, mask)
	c := cpu.Build()
	if _, _, err := core.CutAndResynthesize(c, u.Toggled, u.ConstVal); err != nil {
		return nil, err
	}
	return c, nil
}

// MeasureExtremes fills area and idle-power numbers (normalized to the
// baseline design) for each range's extreme subsets.
func MeasureExtremes(ranges []Range, analyses []*symexec.Result) ([]Range, error) {
	baseArea, basePower := StaticMetrics(cpu.Build())
	measure := func(mask uint32) (area, pw float64, err error) {
		c, err := CutForSubset(analyses, mask)
		if err != nil {
			return 0, 0, err
		}
		area, pw = StaticMetrics(c)
		return area / baseArea, pw / basePower, nil
	}
	for i := range ranges {
		var err error
		if ranges[i].MinArea, ranges[i].MinPower, err = measure(ranges[i].MinSubset); err != nil {
			return nil, err
		}
		if ranges[i].MaxArea, ranges[i].MaxPower, err = measure(ranges[i].MaxSubset); err != nil {
			return nil, err
		}
	}
	return ranges, nil
}

// StaticMetrics places a design and returns its area (um^2) and its
// workload-independent power (uW): leakage plus the clock tree at
// nominal supply, which is what subsetting changes for a fixed
// application mix.
func StaticMetrics(c *cpu.Core) (areaUm2, powerUW float64) {
	lib := cells.TSMC65()
	var leakNW float64
	dffs := 0
	for i := range c.N.Gates {
		k := c.N.Gates[i].Kind
		switch k {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		leakNW += lib.ByKind[k].Leakage
		if k == netlist.Dff {
			dffs++
		}
	}
	const fHz = 100e6
	clkFJ := float64(dffs) * 1.0
	return layout.Place(c.N, lib).AreaUm2, leakNW*1e-3 + clkFJ*fHz*1e-9
}
