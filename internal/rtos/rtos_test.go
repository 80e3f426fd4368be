package rtos

import (
	"context"
	"testing"

	"bespoke/internal/core"
	"bespoke/internal/isasim"
	"bespoke/internal/symexec"
)

func TestKernelAssembles(t *testing.T) {
	for _, tasks := range [][]Task{
		nil,
		{CounterTask()},
		{CounterTask(), SumTask()},
		{CounterTask(), SumTask(), MacTask()},
	} {
		if _, err := Build(tasks...); err != nil {
			t.Fatalf("%d tasks: %v", len(tasks), err)
		}
	}
}

func TestKernelSchedulesISA(t *testing.T) {
	p, err := Build(CounterTask(), MacTask())
	if err != nil {
		t.Fatal(err)
	}
	m := isasim.New(p.Bytes, p.Origin)
	w := TickWorkload(400, 20)
	irqi := 0
	for m.Cycles < w.MaxCycles {
		for irqi < len(w.IRQ) && w.IRQ[irqi].At <= m.Cycles {
			m.SetIRQ(w.IRQ[irqi].Line, w.IRQ[irqi].Level)
			irqi++
		}
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Both tasks must have produced output: the counter task never
	// reaches 256 increments in this budget, but the MAC task reports
	// every iteration.
	if len(m.Out) == 0 {
		t.Fatal("no output: scheduler never ran a producing task")
	}
	// MAC task outputs grow (accumulator).
	grew := false
	for i := 1; i < len(m.Out); i++ {
		if m.Out[i] > m.Out[i-1] {
			grew = true
		}
	}
	if !grew {
		t.Errorf("outputs not growing: %v", m.Out)
	}
}

func TestKernelGateLevel(t *testing.T) {
	p, err := Build(CounterTask(), MacTask())
	if err != nil {
		t.Fatal(err)
	}
	w := TickWorkload(400, 10)
	tr, err := RunFor(p, w, w.MaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the ISA model driven identically.
	m := isasim.New(p.Bytes, p.Origin)
	irqi := 0
	for m.Cycles < tr.Cycles {
		for irqi < len(w.IRQ) && w.IRQ[irqi].At <= m.Cycles {
			m.SetIRQ(w.IRQ[irqi].Line, w.IRQ[irqi].Level)
			irqi++
		}
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Out) == 0 {
		t.Fatal("gate-level kernel produced no output")
	}
	// The interrupt synchronizer delays tick delivery by a couple of
	// cycles at gate level, so traces may differ by one trailing
	// element; require a matching prefix.
	n := len(tr.Out)
	if len(m.Out) < n {
		n = len(m.Out)
	}
	if n == 0 {
		t.Fatal("no comparable output")
	}
	for i := 0; i < n-1; i++ {
		if tr.Out[i] != m.Out[i] {
			t.Fatalf("out[%d]: gate %#x, isa %#x (gate %v isa %v)", i, tr.Out[i], m.Out[i], tr.Out[:n], m.Out[:n])
		}
	}
}

func TestKernelSymbolicAnalysis(t *testing.T) {
	// Section 5.4: the OS alone must leave a large fraction of the
	// processor unusable (the paper reports 57%).
	p, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	res, c, err := core.Analyze(context.Background(), p, symexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.UntoggledCount(c.N)) / float64(c.N.CellCount())
	t.Logf("OS alone: %.1f%% untoggled (paths %d, cycles %d)", 100*frac, res.Paths, res.Cycles)
	if frac < 0.3 {
		t.Errorf("OS-only untoggled %.2f, want a large fraction (multiplier unused, etc.)", frac)
	}
	// The multiplier must be wholly unusable by the OS alone.
	for _, g := range c.N.GatesByModule()["multiplier"] {
		if res.Toggled[g] {
			t.Error("OS alone toggles the multiplier")
			break
		}
	}
}
