package equiv

import (
	"context"
	"math/rand"
	"testing"

	"bespoke/internal/cut"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/sat"
)

// randNetlist builds a small random combinational netlist over nIn inputs
// with nGates gates, every gate reading earlier gates.
func randNetlist(rng *rand.Rand, nIn, nGates int) *netlist.Netlist {
	n := netlist.New()
	for i := 0; i < nIn; i++ {
		n.Add(netlist.Gate{Kind: netlist.Input})
	}
	kinds := []netlist.Kind{
		netlist.Buf, netlist.Not, netlist.And, netlist.Or, netlist.Nand,
		netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Mux,
		netlist.Const0, netlist.Const1,
	}
	for i := 0; i < nGates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		var g netlist.Gate
		g.Kind = k
		prev := netlist.GateID(len(n.Gates))
		for p := 0; p < k.NumInputs(); p++ {
			g.In[p] = netlist.GateID(rng.Intn(int(prev)))
		}
		n.Add(g)
	}
	n.MarkOutput("y", netlist.GateID(len(n.Gates)-1))
	return n
}

// evalConcrete evaluates the netlist for one concrete input assignment.
func evalConcrete(n *netlist.Netlist, inputs uint64) []logic.V {
	vals := make([]logic.V, len(n.Gates))
	for i, id := range n.Inputs {
		vals[id] = logic.FromBool(inputs>>uint(i)&1 == 1)
	}
	topo, err := n.TopoOrder()
	if err != nil {
		panic(err)
	}
	at := func(id netlist.GateID) logic.V {
		if id == netlist.None {
			return logic.X
		}
		return vals[id]
	}
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case netlist.Const0:
			vals[i] = logic.Zero
		case netlist.Const1:
			vals[i] = logic.One
		}
	}
	for _, id := range topo {
		g := &n.Gates[id]
		vals[id] = g.Kind.Eval(at(g.In[0]), at(g.In[1]), at(g.In[2]))
	}
	return vals
}

// crossCheck encodes n, then for a target gate and value compares "SAT:
// gate can be value" against exhaustive input enumeration.
func crossCheck(t *testing.T, n *netlist.Netlist, gate netlist.GateID, want logic.V) {
	t.Helper()
	s := sat.New()
	f, err := NewFrame(s, n, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	st, err := s.Solve(context.Background(), f.Lit(gate, want))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	reachable := false
	for m := uint64(0); m < 1<<uint(len(n.Inputs)); m++ {
		if evalConcrete(n, m)[gate] == want {
			reachable = true
			break
		}
	}
	if (st == sat.Sat) != reachable {
		t.Fatalf("gate %d = %s: solver %v, enumeration reachable=%v", gate, want, st, reachable)
	}
	if st == sat.Sat {
		// The model must be a real witness: plug its inputs back in.
		var m uint64
		for i, id := range n.Inputs {
			if s.Value(f.vars[id]) {
				m |= 1 << uint(i)
			}
		}
		if got := evalConcrete(n, m)[gate]; got != want {
			t.Fatalf("gate %d: model inputs %b give %s, want %s", gate, m, got, want)
		}
	}
}

func TestFrameVsExhaustive(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randNetlist(rng, 2+rng.Intn(5), 3+rng.Intn(10))
		gate := netlist.GateID(rng.Intn(len(n.Gates)))
		crossCheck(t, n, gate, logic.Zero)
		crossCheck(t, n, gate, logic.One)
	}
}

// FuzzCNF drives the same cross-check from the fuzzer: random small
// netlists, Tseitin-encoded, solver verdict checked against exhaustive
// 2^n input enumeration.
func FuzzCNF(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nIn := 1 + rng.Intn(7) // <= 7 inputs: 128 enumerations
		ng := 1 + rng.Intn(14) // <= 15 gates
		n := randNetlist(rng, nIn, ng)
		gate := netlist.GateID(rng.Intn(len(n.Gates)))
		crossCheck(t, n, gate, logic.Zero)
		crossCheck(t, n, gate, logic.One)
	})
}

// chainNetlist builds a design with a self-holding flip-flop (D = Q) that
// resets to 1, an inverter on it, and a live counter-ish path from an
// input so not everything is constant:
//
//	dff  q (reset 1, D=q)
//	not  nq = !q
//	and  a  = in & q
func chainNetlist() (*netlist.Netlist, netlist.GateID, netlist.GateID, netlist.GateID) {
	n := netlist.New()
	in := n.Add(netlist.Gate{Kind: netlist.Input, Name: "in"})
	q := n.Add(netlist.Gate{Kind: netlist.Dff, Reset: logic.One, Name: "q"})
	n.Gates[q].In[0] = q // self-hold
	nq := n.Add(netlist.Gate{Kind: netlist.Not, In: [3]netlist.GateID{q, netlist.None, netlist.None}, Name: "nq"})
	a := n.Add(netlist.Gate{Kind: netlist.And, In: [3]netlist.GateID{in, q, netlist.None}, Name: "a"})
	n.MarkOutput("a", a)
	return n, q, nq, a
}

func TestProveClaimsChain(t *testing.T) {
	n, q, nq, _ := chainNetlist()
	env := &Env{
		N: n,
		Claims: []cut.Claim{
			{Gate: q, Val: logic.One},
			{Gate: nq, Val: logic.Zero},
		},
	}
	rep, err := ProveClaims(context.Background(), env, Options{})
	if err != nil {
		t.Fatalf("ProveClaims: %v", err)
	}
	if rep.Refuted != 0 {
		t.Fatalf("refuted %d claims: %+v", rep.Refuted, rep.Refutations())
	}
	if rep.ProvedStructural+rep.ProvedSAT != 2 {
		t.Fatalf("want both claims proved, got %+v", rep)
	}
}

func TestProveClaimsRefutesCorruption(t *testing.T) {
	n, q, nq, _ := chainNetlist()
	env := &Env{
		N: n,
		Claims: []cut.Claim{
			{Gate: q, Val: logic.One},
			{Gate: nq, Val: logic.One}, // corrupted: !1 is 0
		},
	}
	rep, err := ProveClaims(context.Background(), env, Options{})
	if err != nil {
		t.Fatalf("ProveClaims: %v", err)
	}
	if rep.Refuted != 1 {
		t.Fatalf("want 1 refutation, got %+v", rep)
	}
	ref := rep.Refutations()[0]
	if ref.Claim.Gate != nq {
		t.Fatalf("refuted gate %d, want %d", ref.Claim.Gate, nq)
	}
	if ref.Counterexample == nil {
		t.Fatal("refutation carries no counterexample")
	}
	if ref.Counterexample.Observed != logic.Zero {
		t.Fatalf("counterexample observes %s, want 0", ref.Counterexample.Observed)
	}
	// The honest claim must not be collateral damage.
	for _, cr := range rep.Results {
		if cr.Claim.Gate == q && cr.Verdict == Refuted {
			t.Fatal("honest flip-flop claim refuted")
		}
	}
}

// TestUnconstrainedIsAssumed checks the third verdict: a claim the
// environment cannot decide (a free input's buffer) is Assumed, not
// Refuted.
func TestUnconstrainedIsAssumed(t *testing.T) {
	n := netlist.New()
	in := n.Add(netlist.Gate{Kind: netlist.Input})
	b := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{in, netlist.None, netlist.None}})
	n.MarkOutput("b", b)
	env := &Env{N: n, Claims: []cut.Claim{{Gate: b, Val: logic.Zero}}}
	rep, err := ProveClaims(context.Background(), env, Options{})
	if err != nil {
		t.Fatalf("ProveClaims: %v", err)
	}
	if rep.Results[0].Verdict != Assumed {
		t.Fatalf("verdict %s, want assumed", rep.Results[0].Verdict)
	}
}

func TestMiterIdentical(t *testing.T) {
	n, q, nq, _ := chainNetlist()
	env := &Env{N: n, Claims: []cut.Claim{{Gate: q, Val: logic.One}, {Gate: nq, Val: logic.Zero}}}
	bespoke := n.Clone()
	// Cut: q -> const1, nq -> const0.
	bespoke.Gates[q] = netlist.Gate{Kind: netlist.Const1, In: [3]netlist.GateID{netlist.None, netlist.None, netlist.None}}
	bespoke.Gates[nq] = netlist.Gate{Kind: netlist.Const0, In: [3]netlist.GateID{netlist.None, netlist.None, netlist.None}}
	res, err := ProveMiter(context.Background(), env, bespoke, nil, Options{})
	if err != nil {
		t.Fatalf("ProveMiter: %v", err)
	}
	if !res.Equivalent {
		t.Fatalf("correct cut reported inequivalent: %+v", res)
	}
}

func TestMiterCatchesWrongConstant(t *testing.T) {
	n, q, nq, _ := chainNetlist()
	env := &Env{N: n, Claims: []cut.Claim{{Gate: q, Val: logic.One}}}
	bespoke := n.Clone()
	// Deliberately wrong: q is stitched to 0 although it holds 1.
	bespoke.Gates[q] = netlist.Gate{Kind: netlist.Const0, In: [3]netlist.GateID{netlist.None, netlist.None, netlist.None}}
	bespoke.Gates[nq].In[0] = q
	res, err := ProveMiter(context.Background(), env, bespoke, nil, Options{})
	if err != nil {
		t.Fatalf("ProveMiter: %v", err)
	}
	if res.Equivalent {
		t.Fatal("wrong constant not caught by miter")
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample for inequivalence")
	}
}
