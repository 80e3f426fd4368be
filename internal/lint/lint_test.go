package lint

import (
	"context"
	"reflect"
	"testing"

	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// runAll lints n with every analyzer and returns the report.
func runAll(t *testing.T, n *netlist.Netlist, cfg Config) *Report {
	t.Helper()
	rep, err := Run(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// byAnalyzer groups the flagged gate IDs per analyzer.
func byAnalyzer(rep *Report) map[string][]netlist.GateID {
	out := map[string][]netlist.GateID{}
	for _, f := range rep.Findings {
		out[f.Analyzer] = append(out[f.Analyzer], f.Gate)
	}
	return out
}

// expectOnly asserts that exactly the given analyzer fired, on exactly
// the given gates.
func expectOnly(t *testing.T, rep *Report, analyzer string, gates ...netlist.GateID) {
	t.Helper()
	got := byAnalyzer(rep)
	if len(got) != 1 || !reflect.DeepEqual(got[analyzer], gates) {
		t.Fatalf("findings %v, want only %s on %v", rep.Findings, analyzer, gates)
	}
}

func TestCleanNetlist(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	b := n.Add(netlist.Gate{Kind: netlist.Input, Name: "b"})
	g := n.Add(netlist.Gate{Kind: netlist.And, In: [3]netlist.GateID{a, b}})
	q := n.Add(netlist.Gate{Kind: netlist.Dff, In: [3]netlist.GateID{g}})
	n.MarkOutput("q", q)
	rep := runAll(t, n, Config{})
	if len(rep.Findings) != 0 {
		t.Fatalf("clean netlist produced findings: %v", rep.Findings)
	}
	if !reflect.DeepEqual(rep.Ran, Analyzers()) {
		t.Errorf("Ran = %v, want all analyzers", rep.Ran)
	}
	if _, any := rep.Max(); any {
		t.Error("Max reported a severity on an empty report")
	}
}

// TestNumGatesCountsCells: the report counts cells, not the input
// ports and constants a bespoke core ties its removed gates to.
func TestNumGatesCountsCells(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	zero := n.Add(netlist.Gate{Kind: netlist.Const0})
	one := n.Add(netlist.Gate{Kind: netlist.Const1})
	g := n.Add(netlist.Gate{Kind: netlist.Mux, In: [3]netlist.GateID{zero, one, a}})
	q := n.Add(netlist.Gate{Kind: netlist.Dff, In: [3]netlist.GateID{g}})
	n.MarkOutput("q", q)
	if rep := runAll(t, n, Config{}); rep.NumGates != 2 {
		t.Fatalf("NumGates = %d, want 2 (the mux and the flip-flop)", rep.NumGates)
	}
}

func TestCombLoopCaught(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	g1 := n.Add(netlist.Gate{Kind: netlist.And, In: [3]netlist.GateID{a, netlist.None}})
	g2 := n.Add(netlist.Gate{Kind: netlist.Or, In: [3]netlist.GateID{g1, a}})
	n.Gates[g1].In[1] = g2 // close the cycle g1 -> g2 -> g1
	n.InvalidateDerived()
	n.MarkOutput("o", g2)
	rep := runAll(t, n, Config{})
	expectOnly(t, rep, "comb-loop", g1)
	if rep.Findings[0].Net != g2 {
		t.Errorf("finding should name a second cycle member, got net %d", rep.Findings[0].Net)
	}
}

func TestCombSelfLoopCaught(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	g := n.Add(netlist.Gate{Kind: netlist.And, In: [3]netlist.GateID{a, netlist.None}})
	n.Gates[g].In[1] = g
	n.InvalidateDerived()
	n.MarkOutput("o", g)
	expectOnly(t, runAll(t, n, Config{}), "comb-loop", g)
}

func TestSequentialLoopIsLegal(t *testing.T) {
	// State feedback through a flip-flop is how counters work; the loop
	// analyzer must only consider combinational edges.
	n := netlist.New()
	q := n.Add(netlist.Gate{Kind: netlist.Dff, In: [3]netlist.GateID{netlist.None}})
	d := n.Add(netlist.Gate{Kind: netlist.Not, In: [3]netlist.GateID{q}})
	n.Gates[q].In[0] = d
	n.InvalidateDerived()
	n.MarkOutput("q", q)
	rep := runAll(t, n, Config{})
	if len(rep.Findings) != 0 {
		t.Fatalf("toggle flip-flop flagged: %v", rep.Findings)
	}
}

func TestMultiDrivenCaught(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	g := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{a}})
	n.MarkOutput("o", g)
	// Same net registered as a primary input twice...
	n.Inputs = append(n.Inputs, a)
	// ...and a real gate also registered as externally driven.
	n.Inputs = append(n.Inputs, g)
	n.InvalidateDerived()
	rep := runAll(t, n, Config{})
	expectOnly(t, rep, "multi-driven", a, g)
}

func TestMultiDrivenOutputPort(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	g1 := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{a}})
	g2 := n.Add(netlist.Gate{Kind: netlist.Not, In: [3]netlist.GateID{a}})
	n.MarkOutput("o", g1)
	n.MarkOutput("o", g2)
	expectOnly(t, runAll(t, n, Config{}), "multi-driven", g2)
}

func TestFloatingInputCaught(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	g := n.Add(netlist.Gate{Kind: netlist.And, In: [3]netlist.GateID{a, netlist.None}})
	n.MarkOutput("o", g)
	expectOnly(t, runAll(t, n, Config{}), "floating-input", g)
}

func TestOutOfRangePinCaught(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	g := n.Add(netlist.Gate{Kind: netlist.And, In: [3]netlist.GateID{a, 99}})
	n.MarkOutput("o", g)
	expectOnly(t, runAll(t, n, Config{}), "floating-input", g)
}

func TestDeadLogicCaught(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	live := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{a}})
	n.MarkOutput("o", live)
	// A two-gate island with no path to the output: the interior gate is
	// read (by the island) so only dead-logic can see it; the island's
	// sink additionally trips the local unread-output check — the
	// documented subset relation between the two analyzers.
	d1 := n.Add(netlist.Gate{Kind: netlist.And, In: [3]netlist.GateID{a, a}})
	d2 := n.Add(netlist.Gate{Kind: netlist.Not, In: [3]netlist.GateID{d1}})
	rep := runAll(t, n, Config{})
	got := byAnalyzer(rep)
	if !reflect.DeepEqual(got["dead-logic"], []netlist.GateID{d1, d2}) {
		t.Fatalf("dead-logic flagged %v, want [%d %d]", got["dead-logic"], d1, d2)
	}
	if !reflect.DeepEqual(got["unread-output"], []netlist.GateID{d2}) {
		t.Fatalf("unread-output flagged %v, want only the island sink %d", got["unread-output"], d2)
	}
	if len(got) != 2 {
		t.Fatalf("unexpected extra analyzers fired: %v", rep.Findings)
	}
}

func TestKeepAliveSuppressesDeadAndUnread(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	g := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{a}})
	n.MarkOutput("o", a)
	if rep := runAll(t, n, Config{KeepAlive: []netlist.GateID{g}}); len(rep.Findings) != 0 {
		t.Fatalf("kept net flagged: %v", rep.Findings)
	}
	rep := runAll(t, n, Config{})
	got := byAnalyzer(rep)
	if len(got["dead-logic"]) != 1 || len(got["unread-output"]) != 1 {
		t.Fatalf("without keep-alive the macro pin should be dead+unread, got %v", rep.Findings)
	}
}

func TestConstResidueCaught(t *testing.T) {
	n := netlist.New()
	c0 := n.Add(netlist.Gate{Kind: netlist.Const0})
	c1 := n.Add(netlist.Gate{Kind: netlist.Const1})
	g := n.Add(netlist.Gate{Kind: netlist.Nand, In: [3]netlist.GateID{c0, c1}})
	n.MarkOutput("o", g)
	rep := runAll(t, n, Config{})
	expectOnly(t, rep, "const-residue", g)
	if rep.Findings[0].Net != c0 {
		t.Errorf("finding net = %d, want first constant %d", rep.Findings[0].Net, c0)
	}
}

func TestCellLibArityCaught(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	g := n.Add(netlist.Gate{Kind: netlist.Not, In: [3]netlist.GateID{a}})
	n.Gates[g].In[2] = a // inverter with a connected third pin
	n.InvalidateDerived()
	n.MarkOutput("o", g)
	expectOnly(t, runAll(t, n, Config{}), "cell-lib", g)
}

func TestCellLibUnknownKindCaught(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	g := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{a}})
	n.Gates[g].Kind = netlist.Kind(200)
	n.InvalidateDerived()
	n.MarkOutput("o", a)
	expectOnly(t, runAll(t, n, Config{}), "cell-lib", g)
}

func TestCellLibResetOnCombCell(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	g := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{a}})
	n.Gates[g].Reset = logic.One
	n.InvalidateDerived()
	n.MarkOutput("o", g)
	rep := runAll(t, n, Config{})
	expectOnly(t, rep, "cell-lib", g)
	if rep.Findings[0].Severity != Warning {
		t.Errorf("suspicious-but-legal reset graded %s, want warning", rep.Findings[0].Severity)
	}
}

func TestXSourceCaught(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	q := n.Add(netlist.Gate{Kind: netlist.Dff, In: [3]netlist.GateID{a}, Reset: logic.X})
	n.MarkOutput("q", q)
	rep := runAll(t, n, Config{})
	expectOnly(t, rep, "x-source", q)
	if sev, _ := rep.Max(); sev != Warning {
		t.Errorf("Max = %s, want warning", sev)
	}
	if len(rep.AtLeast(Error)) != 0 {
		t.Error("AtLeast(Error) should be empty for a warning-only report")
	}
}

func TestSelection(t *testing.T) {
	n := netlist.New()
	a := n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	q := n.Add(netlist.Gate{Kind: netlist.Dff, In: [3]netlist.GateID{a}, Reset: logic.X})
	n.MarkOutput("q", q)

	// Selected analyzers run in registry order regardless of request
	// order, and unselected ones stay silent.
	rep, err := Run(context.Background(), n, Config{Analyzers: []string{"x-source", "comb-loop"}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Ran, []string{"comb-loop", "x-source"}) {
		t.Errorf("Ran = %v", rep.Ran)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "x-source" {
		t.Errorf("findings = %v", rep.Findings)
	}
	rep, err = Run(context.Background(), n, Config{Analyzers: []string{"comb-loop"}})
	if err != nil || len(rep.Findings) != 0 {
		t.Errorf("deselected analyzer still fired: %v, %v", rep.Findings, err)
	}

	if _, err := Run(context.Background(), n, Config{Analyzers: []string{"nope"}}); err == nil {
		t.Error("unknown analyzer accepted")
	}
	if _, err := Run(context.Background(), n, Config{Analyzers: []string{"comb-loop", "comb-loop"}}); err == nil {
		t.Error("duplicate analyzer accepted")
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	n := netlist.New()
	n.Add(netlist.Gate{Kind: netlist.Input, Name: "a"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, n, Config{}); err == nil {
		t.Error("cancelled run returned nil error")
	}
}
