package bitsim

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/sim"
)

// TestWordOpsMatchKindEval exhaustively checks every combinational kind
// against netlist.Kind.Eval: all 27 three-valued input combinations are
// packed into lanes (with the remaining lanes holding random repeats)
// and evaluated through the real dispatch path.
func TestWordOpsMatchKindEval(t *testing.T) {
	kinds := []netlist.Kind{
		netlist.Buf, netlist.Not, netlist.And, netlist.Or, netlist.Nand,
		netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Mux,
		netlist.Const0, netlist.Const1,
	}
	vals := [...]logic.V{logic.Zero, logic.One, logic.X}
	r := rand.New(rand.NewSource(1))
	for _, k := range kinds {
		n := netlist.New()
		a := n.Add(netlist.Gate{Kind: netlist.Input})
		b := n.Add(netlist.Gate{Kind: netlist.Input})
		sel := n.Add(netlist.Gate{Kind: netlist.Input})
		g := netlist.Gate{Kind: k}
		switch k.NumInputs() {
		case 3:
			g.In = [3]netlist.GateID{a, b, sel}
		case 2:
			g.In = [3]netlist.GateID{a, b, netlist.None}
		case 1:
			g.In = [3]netlist.GateID{a, netlist.None, netlist.None}
		default:
			g.In = [3]netlist.GateID{netlist.None, netlist.None, netlist.None}
		}
		out := n.Add(g)
		n.MarkOutput("o", out)
		s, err := New(n)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		s.Reset()

		// Lane l holds combo l%27 for the first 27 lanes and random
		// combos beyond, so plane logic is exercised across the full
		// word, not just the low bits.
		var combos [Lanes][3]logic.V
		var wa, wb, wsel W
		for l := 0; l < Lanes; l++ {
			var c [3]logic.V
			if l < 27 {
				c = [3]logic.V{vals[l%3], vals[(l/3)%3], vals[(l/9)%3]}
			} else {
				c = [3]logic.V{vals[r.Intn(3)], vals[r.Intn(3)], vals[r.Intn(3)]}
			}
			combos[l] = c
			wa = wa.SetLane(l, c[0])
			wb = wb.SetLane(l, c[1])
			wsel = wsel.SetLane(l, c[2])
		}
		s.Drive(a, wa)
		s.Drive(b, wb)
		s.Drive(sel, wsel)
		s.Settle()
		got := s.Val[out]
		if got.V&^got.D != 0 {
			t.Fatalf("%v: non-canonical output word V=%#x D=%#x", k, got.V, got.D)
		}
		for l := 0; l < Lanes; l++ {
			c := combos[l]
			want := k.Eval(c[0], c[1], c[2])
			if gv := got.Lane(l); gv != want {
				t.Fatalf("%v(%v,%v,%v) lane %d = %v, want %v", k, c[0], c[1], c[2], l, gv, want)
			}
		}
	}
}

// randomSeqCircuit mirrors the scalar engine's random-test generator:
// combinational logic with feedback through registers only.
func randomSeqCircuit(r *rand.Rand, nIn, nGates, nFF int) (*netlist.Netlist, []netlist.GateID, []netlist.GateID) {
	n := netlist.New()
	var nets []netlist.GateID
	nets = append(nets,
		n.Add(netlist.Gate{Kind: netlist.Const0}),
		n.Add(netlist.Gate{Kind: netlist.Const1}),
	)
	var ins, ffs []netlist.GateID
	for i := 0; i < nIn; i++ {
		id := n.Add(netlist.Gate{Kind: netlist.Input})
		ins = append(ins, id)
		nets = append(nets, id)
	}
	for i := 0; i < nFF; i++ {
		rv := logic.V(r.Intn(2))
		id := n.Add(netlist.Gate{Kind: netlist.Dff, Reset: rv})
		ffs = append(ffs, id)
		nets = append(nets, id)
	}
	kinds := []netlist.Kind{
		netlist.Not, netlist.And, netlist.Or, netlist.Nand,
		netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Mux, netlist.Buf,
	}
	for i := 0; i < nGates; i++ {
		k := kinds[r.Intn(len(kinds))]
		g := netlist.Gate{Kind: k}
		for p := 0; p < k.NumInputs(); p++ {
			g.In[p] = nets[r.Intn(len(nets))]
		}
		nets = append(nets, n.Add(g))
	}
	for _, ff := range ffs {
		n.Gates[ff].In[0] = nets[r.Intn(len(nets))]
	}
	for i := 0; i < 4; i++ {
		n.MarkOutput("o", nets[len(nets)-1-r.Intn(nGates/2+1)])
	}
	return n, ins, ffs
}

// TestLanesMatchScalarSim packs 64 independent scalar simulations into
// one batched instance: every lane gets its own random three-valued
// stimulus sequence, and every net must match the corresponding scalar
// sim.Sim on every cycle. This is the engine-level lane-extraction
// oracle.
func TestLanesMatchScalarSim(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, ins, ffs := randomSeqCircuit(r, 5, 80, 8)
		_ = ffs
		bs, err := New(n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bs.Reset()
		scalars := make([]*sim.Sim, Lanes)
		for l := range scalars {
			s, err := sim.New(n)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			s.Reset()
			scalars[l] = s
		}

		for cycle := 0; cycle < 20; cycle++ {
			for _, in := range ins {
				var w W
				for l := 0; l < Lanes; l++ {
					v := logic.V(r.Intn(3))
					w = w.SetLane(l, v)
					scalars[l].Drive(in, v)
				}
				bs.Drive(in, w)
			}
			bs.Settle()
			for l := range scalars {
				scalars[l].Settle()
			}
			for g := range n.Gates {
				w := bs.Val[g]
				if w.V&^w.D != 0 {
					t.Fatalf("seed %d cycle %d gate %d: non-canonical word", seed, cycle, g)
				}
				for l := range scalars {
					if got, want := w.Lane(l), scalars[l].Val[g]; got != want {
						t.Fatalf("seed %d cycle %d gate %d (%v) lane %d: batched %v, scalar %v",
							seed, cycle, g, n.Gates[g].Kind, l, got, want)
					}
				}
			}
			bs.Edge()
			for l := range scalars {
				scalars[l].Edge()
			}
		}
	}
}

// TestForceLaneMatchesStuckAtRewrite checks that a per-lane force is
// observationally identical to the scalar campaign's netlist rewrite
// (gate replaced by a constant) in that lane, while other lanes stay
// bit-identical to the clean scalar run.
func TestForceLaneMatchesStuckAtRewrite(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		n, ins, _ := randomSeqCircuit(r, 4, 60, 6)

		// Pick a combinational force site.
		var site netlist.GateID = netlist.None
		for i := range n.Gates {
			k := n.Gates[i].Kind
			if !k.IsSeq() && k.NumInputs() > 0 {
				site = netlist.GateID(i)
			}
		}
		if site == netlist.None {
			t.Fatal("no combinational site")
		}
		const lane = 7
		forced := logic.V(r.Intn(2))

		bs, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := bs.ForceLane(site, lane, forced); err != nil {
			t.Fatal(err)
		}
		bs.Reset()

		clean, err := sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		clean.Reset()

		// Scalar stuck-at: rewrite a clone of the netlist.
		nf := n.Clone()
		k := netlist.Const0
		if forced == logic.One {
			k = netlist.Const1
		}
		nf.Gates[site].Kind = k
		nf.Gates[site].In = [3]netlist.GateID{netlist.None, netlist.None, netlist.None}
		nf.InvalidateDerived()
		faulty, err := sim.New(nf)
		if err != nil {
			t.Fatal(err)
		}
		faulty.Reset()

		for cycle := 0; cycle < 20; cycle++ {
			for _, in := range ins {
				v := logic.V(r.Intn(3))
				bs.Drive(in, Splat(v))
				clean.Drive(in, v)
				faulty.Drive(in, v)
			}
			bs.Settle()
			clean.Settle()
			faulty.Settle()
			for g := range n.Gates {
				w := bs.Val[g]
				for l := 0; l < Lanes; l++ {
					want := clean.Val[g]
					if l == lane {
						want = faulty.Val[g]
					}
					if got := w.Lane(l); got != want {
						t.Fatalf("seed %d cycle %d gate %d lane %d: batched %v, scalar %v",
							seed, cycle, g, l, got, want)
					}
				}
			}
			bs.Edge()
			clean.Edge()
			faulty.Edge()
		}
	}
}

// TestInjectPulseLaneMatchesScalar checks the SET pulse lane semantics
// against sim.InjectPulse: strike the same gate at the same point, and
// the struck lane must track the scalar faulty run (including the heal
// at the edge) while other lanes track the clean run.
func TestInjectPulseLaneMatchesScalar(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(200 + seed))
		n, ins, _ := randomSeqCircuit(r, 4, 60, 6)
		var site netlist.GateID = netlist.None
		for i := range n.Gates {
			k := n.Gates[i].Kind
			if !k.IsSeq() && k.NumInputs() > 0 {
				site = netlist.GateID(i)
			}
		}
		const lane = 42
		strikeCycle := 3 + int(r.Int63n(5))

		bs, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		bs.Reset()
		clean, err := sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		clean.Reset()
		faulty, err := sim.New(n)
		if err != nil {
			t.Fatal(err)
		}
		faulty.Reset()

		for cycle := 0; cycle < 20; cycle++ {
			for _, in := range ins {
				v := logic.V(r.Intn(3))
				bs.Drive(in, Splat(v))
				clean.Drive(in, v)
				faulty.Drive(in, v)
			}
			bs.Settle()
			clean.Settle()
			faulty.Settle()
			if cycle == strikeCycle {
				bv, err := bs.InjectPulseLane(site, lane)
				if err != nil {
					t.Fatal(err)
				}
				sv, err := faulty.InjectPulse(site)
				if err != nil {
					t.Fatal(err)
				}
				if bv != sv {
					t.Fatalf("seed %d: pulse drove %v, scalar %v", seed, bv, sv)
				}
				bs.Settle()
				faulty.Settle()
			}
			for g := range n.Gates {
				w := bs.Val[g]
				for l := 0; l < Lanes; l++ {
					want := clean.Val[g]
					if l == lane {
						want = faulty.Val[g]
					}
					if got := w.Lane(l); got != want {
						t.Fatalf("seed %d cycle %d gate %d lane %d: batched %v, scalar %v",
							seed, cycle, g, l, got, want)
					}
				}
			}
			bs.Edge()
			clean.Edge()
			faulty.Edge()
		}
	}
}

// TestBlockReadPathCycleDetected closes a combinational loop through a
// block's read path, as sim's test of the same name does: the ROM's data
// output drives its own address.
func TestBlockReadPathCycleDetected(t *testing.T) {
	n := netlist.New()
	rdata := n.Add(netlist.Gate{Kind: netlist.Input, Name: "rdata"})
	addr := n.Add(netlist.Gate{Kind: netlist.Not, In: [3]netlist.GateID{rdata, netlist.None, netlist.None}})
	en := n.Add(netlist.Gate{Kind: netlist.Input, Name: "en"})
	rom := NewROM(sim.NewROM([]netlist.GateID{addr}, []netlist.GateID{rdata}, en))
	if _, err := New(n, rom); err == nil {
		t.Fatal("cycle through the ROM read path not detected")
	}
	if _, err := New(n); err != nil {
		t.Fatalf("the same netlist without the block: %v", err)
	}
}

// TestUniformKnownIgnoresOtherLanes pins the memories' lockstep check:
// only the lanes in the mask must agree on a known value.
func TestUniformKnownIgnoresOtherLanes(t *testing.T) {
	for _, c := range []struct {
		w    W
		m    uint64
		want logic.V
		ok   bool
	}{
		{W{0b0101, 0b0111}, 0b0101, logic.One, true}, // lane 1 known 0, lane 3 X: ignored
		{W{0b1000, 0b1010}, 0b0010, logic.Zero, true},
		{W{0b0100, 0b1110}, 0b0110, logic.X, false}, // live lanes disagree
		{W{0b0000, 0b0010}, 0b0011, logic.X, false}, // live lane 0 is X
		{W{0b0000, 0b0001}, 0b0011, logic.X, false}, // live lane 1 is X
		{Splat(logic.One), ^uint64(0), logic.One, true},
	} {
		if v, ok := uniformKnown(c.w, c.m); v != c.want || ok != c.ok {
			t.Errorf("uniformKnown(%+v, %#b) = %v, %v; want %v, %v", c.w, c.m, v, ok, c.want, c.ok)
		}
	}
}

// TestRetiredLanesIgnored retires lanes at staggered cycles — per-lane
// budgets in scrambled order, halts, and the unused lanes of a partial
// batch — with stuck-at forces and private ROM images on some lanes, and
// fills every retired lane's RAM words with junk after each retirement.
// From the hook it checks that the simulator's live mask follows the
// harness's and that every lane outside it reads X from both memories;
// at the end, every unforced lane that halted matches its scalar run.
// tHold drives P1 throughout its run; binSearch preloads different RAM
// contents per lane.
func TestRetiredLanesIgnored(t *testing.T) {
	for _, name := range []string{"tHold", "binSearch"} {
		b := bench.ByName(name)
		prog := b.MustProg()
		c := cpu.Build()
		tr, err := core.RunWorkload(context.Background(), c, prog, b.Workload(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		const n = 40
		h, err := NewHarness(c, prog, n)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(3))
		ws := make([]*core.Workload, n)
		for l := range ws {
			ws[l] = b.Workload(uint64(l + 1))
			ws[l].MaxCycles = 20 + tr.Cycles*uint64(l*7%n)/n
			if l%5 == 4 {
				ws[l].MaxCycles = 2 * tr.Cycles // retires by halting, unless forced
			}
			switch l % 4 {
			case 1:
				for {
					g := netlist.GateID(r.Intn(len(c.N.Gates)))
					if h.S.ForceLane(g, l, logic.V(r.Intn(2))) == nil {
						break
					}
				}
			case 2:
				if err := h.ROM.LoadLaneProgram(l, prog.Bytes, prog.Origin); err != nil {
					t.Fatal(err)
				}
			}
		}
		rdata := append(append([]netlist.GateID(nil), h.RAM.rdata...), h.ROM.rdata...)
		last, changes := uint64(0), 0
		hook := func(h *Harness) {
			live := h.Live()
			if live == last {
				return
			}
			last = live
			changes++
			if h.S.live != live {
				t.Fatalf("%s cycle %d: simulator live mask %#x, harness %#x", name, h.Cycles(), h.S.live, live)
			}
			h.S.Settle()
			for _, id := range rdata {
				if d := h.S.Val[id].D &^ live; d != 0 {
					t.Fatalf("%s cycle %d: memory output %d is known in retired lanes %#x", name, h.Cycles(), id, d)
				}
			}
			for i := range h.RAM.words {
				for j := range h.RAM.words[i] {
					w := &h.RAM.words[i][j]
					junk := r.Uint64() &^ live
					w.V, w.D = w.V&live|junk&r.Uint64(), w.D&live|junk
				}
			}
		}
		if err := h.Run(context.Background(), ws, hook); err != nil {
			t.Fatal(err)
		}
		if changes < n/2 {
			t.Fatalf("%s: the live mask changed %d times: too few to cover retirement", name, changes)
		}
		for l := 4; l < n; l += 5 {
			if l%4 == 1 {
				continue // forced
			}
			want, err := core.RunWorkload(context.Background(), c, prog, b.Workload(uint64(l+1)))
			if err != nil {
				t.Fatalf("%s lane %d: scalar run: %v", name, l, err)
			}
			got := h.Lane[l]
			if got.Status != LaneHalted || got.Cycles != want.Cycles || !slices.Equal(got.Out, want.Out) {
				t.Errorf("%s lane %d: %s at cycle %d with output %v; scalar halted at %d with %v",
					name, l, got.Status, got.Cycles, got.Out, want.Cycles, want.Out)
			}
		}
	}
}
