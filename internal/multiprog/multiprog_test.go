package multiprog

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/logic"
	"bespoke/internal/symexec"
)

func analyzeSome(t *testing.T, names []string) ([]*symexec.Result, int) {
	t.Helper()
	var out []*symexec.Result
	gates := 0
	for _, n := range names {
		b := bench.ByName(n)
		res, c, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		out = append(out, res)
		gates = len(c.N.Gates)
	}
	return out, gates
}

func TestGateRangesMonotone(t *testing.T) {
	analyses, gates := analyzeSome(t, []string{"intAVG", "mult", "convEn", "dbg"})
	ranges := GateRanges(analyses, gates)
	if len(ranges) != 4 {
		t.Fatalf("ranges = %d", len(ranges))
	}
	for i := range ranges {
		r := ranges[i]
		if r.MinGates > r.MaxGates {
			t.Errorf("N=%d: min %d > max %d", r.N, r.MinGates, r.MaxGates)
		}
		if i > 0 {
			// Adding programs can only grow the minimum union.
			if r.MinGates < ranges[i-1].MinGates {
				t.Errorf("N=%d min %d below N=%d min %d", r.N, r.MinGates, r.N-1, ranges[i-1].MinGates)
			}
			if r.MaxGates < ranges[i-1].MaxGates {
				t.Errorf("N=%d max %d below N=%d max %d", r.N, r.MaxGates, r.N-1, ranges[i-1].MaxGates)
			}
		}
	}
	// The full-suite union must still be well under the baseline.
	base := cpu.Build().N.CellCount()
	full := ranges[len(ranges)-1].MaxGates
	if float64(full) > 0.9*float64(base) {
		t.Errorf("4-program union %d uses over 90%% of baseline %d", full, base)
	}
	t.Logf("ranges: %+v (baseline %d)", ranges, base)
}

func TestCutForSubsetRuns(t *testing.T) {
	analyses, _ := analyzeSome(t, []string{"intAVG", "mult"})
	c, err := CutForSubset(analyses, 0b11)
	if err != nil {
		t.Fatal(err)
	}
	// Both programs must execute on the union design.
	for _, name := range []string{"intAVG", "mult"} {
		b := bench.ByName(name)
		tr, err := core.RunWorkload(context.Background(), c, b.MustProg(), b.Workload(1))
		if err != nil {
			t.Fatalf("%s on union design: %v", name, err)
		}
		m, err := b.RunISA(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Out) != len(m.Out) {
			t.Fatalf("%s: out %v vs isa %v", name, tr.Out, m.Out)
		}
		for i := range tr.Out {
			if tr.Out[i] != m.Out[i] {
				t.Fatalf("%s: out[%d] %#x vs %#x", name, i, tr.Out[i], m.Out[i])
			}
		}
	}
}

func TestMeasureExtremes(t *testing.T) {
	analyses, gates := analyzeSome(t, []string{"intAVG", "mult", "dbg"})
	ranges, err := MeasureExtremes(GateRanges(analyses, gates), analyses)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranges {
		if r.MinArea <= 0 || r.MinArea > 1 || r.MaxArea <= 0 || r.MaxArea > 1 {
			t.Errorf("N=%d: normalized areas out of range: %+v", r.N, r)
		}
		if r.MinPower <= 0 || r.MaxPower > 1.0 {
			t.Errorf("N=%d: normalized powers out of range: %+v", r.N, r)
		}
	}
}

// TestGateRangesMatchUnionRule checks GateRanges' bitset form against the
// shared union rule (symexec.Result.Merge) on every subset of four
// synthetic programs whose untoggled gates disagree on constants often,
// so the constant-conflict branch is exercised.
func TestGateRangesMatchUnionRule(t *testing.T) {
	const n, gates = 4, 300
	rng := rand.New(rand.NewSource(1))
	analyses := make([]*symexec.Result, n)
	for i := range analyses {
		r := &symexec.Result{Toggled: make([]bool, gates), ConstVal: make([]logic.V, gates)}
		for g := range r.Toggled {
			switch rng.Intn(3) {
			case 0:
				r.Toggled[g], r.ConstVal[g] = true, logic.X
			case 1:
				r.ConstVal[g] = logic.Zero
			default:
				r.ConstVal[g] = logic.One
			}
		}
		analyses[i] = r
	}
	kept := func(mask uint32) int {
		c := 0
		for _, t := range unionResult(analyses, mask).Toggled {
			if t {
				c++
			}
		}
		return c
	}
	ranges := GateRanges(analyses, gates)
	for size := 1; size <= n; size++ {
		lo, hi := gates+1, -1
		for mask := uint32(1); mask < 1<<n; mask++ {
			if bits.OnesCount32(mask) != size {
				continue
			}
			c := kept(mask)
			lo, hi = min(lo, c), max(hi, c)
		}
		r := ranges[size-1]
		if r.MinGates != lo || r.MaxGates != hi {
			t.Errorf("N=%d: GateRanges %d..%d, union rule %d..%d", size, r.MinGates, r.MaxGates, lo, hi)
		}
		if kept(r.MinSubset) != r.MinGates || kept(r.MaxSubset) != r.MaxGates {
			t.Errorf("N=%d: extreme subsets %04b/%04b do not keep %d/%d gates", size, r.MinSubset, r.MaxSubset, r.MinGates, r.MaxGates)
		}
	}
}
