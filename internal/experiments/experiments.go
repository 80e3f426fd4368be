// Package experiments regenerates every table and figure of the paper's
// evaluation on the reproduction's substrates. Each experiment returns a
// structured result plus a text rendering; cmd/bespoke-bench drives them
// and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/parallel"
	"bespoke/internal/report"
	"bespoke/internal/symexec"
)

// Suite returns the benchmark list used by the experiments. quick trims
// it for smoke tests.
func Suite(quick bool) []*bench.Benchmark {
	if quick {
		return bench.Quick()
	}
	return bench.All()
}

// Table1 prints the benchmark suite with measured maximum execution
// lengths (cycles on the gate-level core, worst over the seeds).
func Table1(w io.Writer, quick bool) error {
	t := report.NewTable("Table 1: Benchmarks", "Benchmark", "Description", "Max Execution Length (cycles)")
	seeds := 5
	if quick {
		seeds = 2
	}
	for _, b := range Suite(quick) {
		var max uint64
		for s := 1; s <= seeds; s++ {
			m, err := b.RunISA(uint64(s))
			if err != nil {
				return fmt.Errorf("%s: %w", b.Name, err)
			}
			if m.Cycles > max {
				max = m.Cycles
			}
		}
		t.Add(b.Name, b.Desc, max)
	}
	t.Write(w)
	return nil
}

// ProfileResult is one benchmark's Figure 2 data point.
type ProfileResult struct {
	Bench string
	// Intersection is the fraction of gates untoggled across ALL inputs.
	Intersection float64
	// Min/Max are the per-input untoggled fraction extremes.
	Min, Max float64
}

// Profile runs the benchmark's workload for several input seeds on the
// gate-level design and reports untoggled-gate fractions (Figure 2's
// profiling methodology: no guarantees, just observed inputs).
func Profile(b *bench.Benchmark, seeds int) (*ProfileResult, error) {
	c := cpu.Build()
	p := b.MustProg()
	cells := c.N.CellCount()

	res := &ProfileResult{Bench: b.Name, Min: 1}
	// Per-seed runs mutate the core's memories, so every seed runs on a
	// private clone (gate IDs are preserved; the harness reinitializes
	// all state per run); traces are merged sequentially afterwards.
	traces := make([]*core.RunTrace, seeds)
	err := parallel.ForEach(context.Background(), 0, seeds, func(i int) error {
		s := i + 1
		tr, err := core.RunWorkload(context.Background(), c.Clone(), p, b.Workload(uint64(s)))
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", b.Name, s, err)
		}
		traces[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	var everToggled []bool
	for _, tr := range traces {
		if everToggled == nil {
			everToggled = make([]bool, len(tr.Toggles))
		}
		un := 0
		for g, n := range tr.Toggles {
			k := c.N.Gates[g].Kind
			if k.NumInputs() == 0 && !k.IsSeq() {
				continue
			}
			if n > 0 {
				everToggled[g] = true
			} else {
				un++
			}
		}
		frac := float64(un) / float64(cells)
		if frac < res.Min {
			res.Min = frac
		}
		if frac > res.Max {
			res.Max = frac
		}
	}
	inter := 0
	for g := range everToggled {
		k := c.N.Gates[g].Kind
		if k.NumInputs() == 0 && !k.IsSeq() {
			continue
		}
		if !everToggled[g] {
			inter++
		}
	}
	res.Intersection = float64(inter) / float64(cells)
	return res, nil
}

// Fig2 prints the profiling study: untoggled fractions under many inputs.
func Fig2(w io.Writer, quick bool) error {
	seeds := 10
	if quick {
		seeds = 3
	}
	fmt.Fprintln(w, "\nFigure 2: Gates not toggled under input profiling")
	fmt.Fprintln(w, "(bar = untoggled for every profiled input; range = per-input extremes)")
	for _, b := range Suite(quick) {
		r, err := Profile(b, seeds)
		if err != nil {
			return err
		}
		report.Bar(w, b.Name, r.Intersection, 40)
		fmt.Fprintf(w, "%-18s per-input range: %.1f%% .. %.1f%%\n", "", 100*r.Min, 100*r.Max)
	}
	return nil
}

// DieRow is one module's share in a two-application comparison.
type DieRow struct {
	Module      string
	Total       int
	CommonUntog int // untoggled by both applications
	UniqueA     int // untoggled only by A
	UniqueB     int // untoggled only by B
}

// DieCompare computes the Figure 3/4 die comparison between two
// applications using the input-independent analysis.
func DieCompare(a, b *bench.Benchmark) ([]DieRow, error) {
	ra, ca, err := core.Analyze(context.Background(), a.MustProg(), symexec.Options{})
	if err != nil {
		return nil, err
	}
	rb, _, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
	if err != nil {
		return nil, err
	}
	byMod := ca.N.GatesByModule()
	names := make([]string, 0, len(byMod))
	for n := range byMod {
		names = append(names, n)
	}
	sort.Strings(names)
	var rows []DieRow
	for _, name := range names {
		row := DieRow{Module: name, Total: len(byMod[name])}
		for _, g := range byMod[name] {
			ua, ub := !ra.Toggled[g], !rb.Toggled[g]
			switch {
			case ua && ub:
				row.CommonUntog++
			case ua:
				row.UniqueA++
			case ub:
				row.UniqueB++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig3 compares FFT and binSearch (the paper's die graphs).
func Fig3(w io.Writer) error { return dieFig(w, "Figure 3", bench.FFT(), bench.BinSearch()) }

// Fig4 compares intFilt against scrambled-intFilt: identical instruction
// mix, different exercisable gates.
func Fig4(w io.Writer) error {
	return dieFig(w, "Figure 4", bench.IntFilt(), bench.ScrambledIntFilt())
}

func dieFig(w io.Writer, title string, a, b *bench.Benchmark) error {
	rows, err := DieCompare(a, b)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("%s: untoggled gates, %s vs %s", title, a.Name, b.Name),
		"Module", "Gates", "Untog both", "Only "+a.Name, "Only "+b.Name)
	for _, r := range rows {
		t.Add(r.Module, r.Total, r.CommonUntog, r.UniqueA, r.UniqueB)
	}
	t.Write(w)
	return nil
}

// UsableRow is one benchmark's Figure 10 data.
type UsableRow struct {
	Bench    string
	Fraction float64        // toggleable gates / all gates
	ByModule map[string]int // toggleable gates per module
}

// Fig10 runs the input-independent analysis per benchmark and prints the
// usable-gate fraction with a per-module breakdown.
func Fig10(w io.Writer, quick bool) ([]UsableRow, error) {
	benches := Suite(quick)
	rows := make([]UsableRow, len(benches))
	fmt.Fprintln(w, "\nFigure 10: Fraction of gates toggleable for any input (by module)")
	err := parallel.ForEach(context.Background(), 0, len(benches), func(i int) error {
		b := benches[i]
		res, c, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		row := UsableRow{Bench: b.Name, ByModule: map[string]int{}}
		used := 0
		for name, gates := range c.N.GatesByModule() {
			for _, g := range gates {
				if res.Toggled[g] {
					row.ByModule[name]++
					used++
				}
			}
		}
		row.Fraction = float64(used) / float64(c.N.CellCount())
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		report.Bar(w, row.Bench, row.Fraction, 40)
		mods := make([]string, 0, len(row.ByModule))
		for m := range row.ByModule {
			mods = append(mods, m)
		}
		sort.Strings(mods)
		fmt.Fprintf(w, "%-18s ", "")
		for _, m := range mods {
			fmt.Fprintf(w, "%s:%d ", m, row.ByModule[m])
		}
		fmt.Fprintln(w)
	}
	return rows, nil
}

// analyzeSuite runs the input-independent analysis for every benchmark in
// parallel, returning results in suite order plus the gate count of the
// base design.
func analyzeSuite(ctx context.Context, benches []*bench.Benchmark) ([]*symexec.Result, int, error) {
	analyses := make([]*symexec.Result, len(benches))
	var gates int32
	err := parallel.ForEach(ctx, 0, len(benches), func(i int) error {
		res, c, err := core.Analyze(ctx, benches[i].MustProg(), symexec.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", benches[i].Name, err)
		}
		analyses[i] = res
		atomic.StoreInt32(&gates, int32(len(c.N.Gates)))
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return analyses, int(atomic.LoadInt32(&gates)), nil
}
