package core

import (
	"context"
	"errors"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/lint"
	"bespoke/internal/netlist"
)

// corruptWithConstResidue rewires one live combinational gate so that
// every input is a stitched constant — the "wrong constant stitched"
// failure mode of a broken cut — and returns the gate. The target is
// chosen so no other gate is orphaned: each of its current fan-ins must
// be a constant already or have another reader, keeping const-residue
// the only analyzer with an error to report.
func corruptWithConstResidue(n *netlist.Netlist) netlist.GateID {
	var c0 netlist.GateID = netlist.None
	for i := range n.Gates {
		if n.Gates[i].Kind == netlist.Const0 {
			c0 = netlist.GateID(i)
			break
		}
	}
	if c0 == netlist.None {
		return netlist.None
	}
	fo := n.Fanout()
	for i := range n.Gates {
		g := &n.Gates[i]
		if !(g.Kind == netlist.And || g.Kind == netlist.Or || g.Kind == netlist.Xor) || len(fo[i]) == 0 {
			continue
		}
		ok := true
		for p := 0; p < g.Kind.NumInputs(); p++ {
			in := g.In[p]
			k := n.Gates[in].Kind
			if k != netlist.Const0 && k != netlist.Const1 && len(fo[in]) < 2 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for p := 0; p < g.Kind.NumInputs(); p++ {
			g.In[p] = c0
		}
		n.InvalidateDerived()
		return netlist.GateID(i)
	}
	return netlist.None
}

// TestTailorRejectsCorruptedCut is the acceptance check for the static
// gate: a deliberately corrupted cut (foldable residue left behind) must
// be rejected by the lint stage with the offending analyzer and gate,
// and the broken core must never reach the caller.
func TestTailorRejectsCorruptedCut(t *testing.T) {
	var corrupted netlist.GateID = netlist.None
	testHookPostSynth = func(n *netlist.Netlist) {
		corrupted = corruptWithConstResidue(n)
	}
	defer func() { testHookPostSynth = nil }()

	p := asm.MustAssemble(simpleAdd)
	res, err := Tailor(context.Background(), p, addWorkload(), Options{})
	if corrupted == netlist.None {
		t.Fatal("hook found no gate to corrupt")
	}
	if err == nil {
		t.Fatal("corrupted cut accepted")
	}
	if res != nil {
		t.Error("corrupted core escaped alongside the error")
	}
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != "lint" {
		t.Fatalf("error %v, want *FlowError in stage lint", err)
	}
	var le *LintError
	if !errors.As(err, &le) {
		t.Fatalf("error %v does not carry a *LintError", err)
	}
	if le.Analyzer() != "const-residue" {
		t.Errorf("analyzer = %s, want const-residue (findings: %v)", le.Analyzer(), le.Findings)
	}
	if le.Gate() != corrupted {
		t.Errorf("gate = %d, want the corrupted gate %d", le.Gate(), corrupted)
	}
	if fe.Gate != corrupted {
		t.Errorf("FlowError gate = %d, want %d", fe.Gate, corrupted)
	}
}

// TestTailoredCoreLintsClean holds the flow to more than the gate's
// error threshold: a freshly tailored core must have zero findings of
// any severity.
func TestTailoredCoreLintsClean(t *testing.T) {
	p := asm.MustAssemble(simpleAdd)
	res, err := Tailor(context.Background(), p, addWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := LintCore(context.Background(), res.BespokeCore, lint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		t.Errorf("bespoke: %s", f)
	}
	rep, err = LintCore(context.Background(), res.BaselineCore, lint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		t.Errorf("baseline: %s", f)
	}
}
