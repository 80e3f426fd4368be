package equiv

import (
	"context"
	"testing"

	"bespoke/internal/cut"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// TestProvenanceNamesUsedInvariants proves a claim that is only
// dischargeable through an invariant and checks the provenance trail
// names it: the claim gate copies a flip-flop the frame otherwise leaves
// free, so query A is SAT without the invariant and UNSAT with it, and
// the UNSAT core must contain the invariant's selector.
func TestProvenanceNamesUsedInvariants(t *testing.T) {
	n := netlist.New()
	in := n.Add(netlist.Gate{Kind: netlist.Input})
	d := n.Add(netlist.Gate{Kind: netlist.Dff, In: [3]netlist.GateID{in, netlist.None, netlist.None}})
	g := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{d, netlist.None, netlist.None}})
	n.MarkOutput("y", g)

	claims := []cut.Claim{{Gate: g, Val: logic.Zero}}

	// Without the invariant the flip-flop is unconstrained: Assumed.
	rep, err := ProveClaims(context.Background(), &Env{N: n, Claims: claims}, Options{})
	if err != nil {
		t.Fatalf("ProveClaims (no invariant): %v", err)
	}
	if got := rep.Results[0].Verdict; got != Assumed {
		t.Fatalf("without invariant: verdict %v, want Assumed", got)
	}

	iv := Invariant{
		Name:  "d",
		K:     3,
		Bits:  []netlist.GateID{d},
		Cubes: []logic.Word{logic.KnownWord(0)},
	}
	rep, err = ProveClaims(context.Background(),
		&Env{N: n, Claims: claims, Invariants: []Invariant{iv}}, Options{})
	if err != nil {
		t.Fatalf("ProveClaims (with invariant): %v", err)
	}
	r := rep.Results[0]
	if r.Verdict != ProvedSAT {
		t.Fatalf("with invariant: verdict %v, want ProvedSAT", r.Verdict)
	}
	if len(r.Used) != 1 || r.Used[0] != 0 {
		t.Fatalf("provenance Used = %v, want [0]", r.Used)
	}
	if r.K != iv.K {
		t.Fatalf("provenance K = %d, want %d", r.K, iv.K)
	}
}
