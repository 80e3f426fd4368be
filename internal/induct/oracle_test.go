package induct

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bespoke/internal/cut"
	"bespoke/internal/equiv"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// The exact-fixpoint oracle: small random sequential designs whose every
// state and input sequence can be enumerated, so each ladder level's
// base prune and greatest k-inductive subset are computed directly and
// Prove must reproduce them, however many solves or simulated lanes it
// spends getting there.

// oracleDesign is one random design and the havoc bits of its frames.
type oracleDesign struct {
	spec   *Spec
	claims []cut.Claim
	opts   Options
	dffs   []netlist.GateID
	// free lists a frame's havoc bits: the primary inputs, then the RAM
	// data nets (read as the bit when enabled, 0 otherwise).
	free []netlist.GateID
}

var combKinds = []netlist.Kind{
	netlist.Buf, netlist.Not, netlist.And, netlist.Or, netlist.Nand,
	netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Mux,
}

// randomDesign builds design seed: 1–6 flip-flops (X resets included),
// 1–2 inputs, both constants, every combinational kind at least once,
// and on odd seeds a 2-bit-address ROM and a one-bit RAM whose read data
// feed later gates. Gate IDs are a topological order of the frame,
// memory reads included. Claims sit on combinational gates; cube and
// implication candidates come through Spec.Extra.
func randomDesign(seed int64) *oracleDesign {
	r := rand.New(rand.NewSource(seed))
	n := netlist.New()
	d := &oracleDesign{opts: Options{K: 1 + r.Intn(4)}}
	var srcs []netlist.GateID // every gate a later gate may read
	for i, nIn := 0, 1+r.Intn(2); i < nIn; i++ {
		in := n.Add(netlist.Gate{Kind: netlist.Input, Name: fmt.Sprintf("in%d", i)})
		d.free = append(d.free, in)
		srcs = append(srcs, in)
	}
	for i, nDff := 0, 1+r.Intn(6); i < nDff; i++ {
		reset := []logic.V{logic.Zero, logic.One, logic.Zero, logic.One, logic.X}[r.Intn(5)]
		q := n.Add(netlist.Gate{Kind: netlist.Dff, Reset: reset, Name: fmt.Sprintf("q%d", i)})
		d.dffs = append(d.dffs, q)
		srcs = append(srcs, q)
	}
	srcs = append(srcs, n.Add(netlist.Gate{Kind: netlist.Const0}), n.Add(netlist.Gate{Kind: netlist.Const1}))
	pick := func() netlist.GateID { return srcs[r.Intn(len(srcs))] }
	var comb []netlist.GateID
	addComb := func(k netlist.Kind) {
		g := netlist.Gate{Kind: k, In: [3]netlist.GateID{pick(), netlist.None, netlist.None}}
		if k.NumInputs() > 1 {
			g.In[1] = pick()
		}
		if k == netlist.Mux {
			g.In[2] = pick()
		}
		id := n.Add(g)
		comb = append(comb, id)
		srcs = append(srcs, id)
	}
	for _, i := range r.Perm(len(combKinds)) {
		addComb(combKinds[i])
	}
	if seed%2 == 1 {
		rom := &equiv.ROMSpec{Addr: []netlist.GateID{pick(), pick()}, En: pick()}
		for i, nw := 0, 3+r.Intn(2); i < nw; i++ { // 3 words: address 3 reads 0
			rom.Words = append(rom.Words, uint16(r.Intn(4)))
		}
		ram := &equiv.RAMSpec{En: pick()}
		for j := 0; j < 2; j++ {
			rom.Data = append(rom.Data, n.Add(netlist.Gate{Kind: netlist.Input, Name: fmt.Sprintf("rom%d", j)}))
		}
		ram.Data = []netlist.GateID{n.Add(netlist.Gate{Kind: netlist.Input, Name: "ram0"})}
		d.free = append(d.free, ram.Data...)
		srcs = append(srcs, rom.Data[0], rom.Data[1], ram.Data[0])
		d.spec = &Spec{ROM: rom, RAM: ram}
	} else {
		d.spec = &Spec{}
	}
	for i, extra := 0, 2+r.Intn(4); i < extra; i++ {
		addComb(combKinds[r.Intn(len(combKinds))])
	}
	for _, q := range d.dffs {
		n.Gates[q].In[0] = pick()
	}
	n.MarkOutput("out", comb[len(comb)-1])
	d.spec.N = n

	// Candidates take values from a short random run from reset, so
	// some hold and some do not.
	var run [][]bool
	state := d.resetState(r)
	for t := 0; t < 6; t++ {
		vals := d.eval(state, uint(r.Intn(1<<len(d.free))))
		run = append(run, vals)
		state = d.next(vals)
	}
	seen := map[netlist.GateID]bool{}
	for i, nClaims := 0, 1+r.Intn(4); i < nClaims; i++ {
		g := comb[r.Intn(len(comb))]
		if seen[g] {
			continue
		}
		seen[g] = true
		d.claims = append(d.claims, cut.Claim{Gate: g, Val: logic.FromBool(run[r.Intn(len(run))][g])})
	}
	for i, nCubes := 0, 1+r.Intn(3); i < nCubes; i++ {
		iv := equiv.Invariant{Name: fmt.Sprintf("cube%d", i)}
		for _, j := range r.Perm(len(srcs))[:1+r.Intn(3)] {
			iv.Bits = append(iv.Bits, srcs[j])
		}
		for c, nc := 0, 1+r.Intn(3); c < nc; c++ {
			vals := run[r.Intn(len(run))]
			w := logic.Word{Mask: uint16(r.Intn(1<<len(iv.Bits))) & uint16(r.Intn(2)*0xF)}
			for b, g := range iv.Bits {
				if vals[g] {
					w.Val |= 1 << uint(b)
				}
			}
			w.Val &^= w.Mask
			iv.Cubes = append(iv.Cubes, w)
		}
		d.spec.Extra = append(d.spec.Extra, iv)
	}
	for i, nImp := 0, 1+r.Intn(2); i < nImp; i++ {
		from, to := pick(), pick()
		if from == to {
			continue
		}
		vals := run[r.Intn(len(run))]
		d.spec.Extra = append(d.spec.Extra, equiv.Invariant{
			Name: fmt.Sprintf("imp%d", i), From: from, To: to,
			FromVal: logic.FromBool(vals[from]), ToVal: logic.FromBool(vals[to] != (r.Intn(4) == 0)),
		})
	}
	return d
}

// resetState returns a state matching every flip-flop's reset value, X
// resets drawn from r.
func (d *oracleDesign) resetState(r *rand.Rand) uint {
	var s uint
	for i, q := range d.dffs {
		switch d.spec.N.Gates[q].Reset {
		case logic.One:
			s |= 1 << uint(i)
		case logic.X:
			s |= uint(r.Intn(2)) << uint(i)
		}
	}
	return s
}

// isReset reports whether state s matches the concrete reset values.
func (d *oracleDesign) isReset(s uint) bool {
	for i, q := range d.dffs {
		if v := d.spec.N.Gates[q].Reset; v != logic.X && (s>>uint(i)&1 == 1) != (v == logic.One) {
			return false
		}
	}
	return true
}

// eval settles one frame from flip-flop state s and havoc bits a, gate by
// gate in ID order, with addFrame's memory semantics written out
// independently of the lane evaluator.
func (d *oracleDesign) eval(s, a uint) []bool {
	n, rom, ram := d.spec.N, d.spec.ROM, d.spec.RAM
	vals := make([]bool, len(n.Gates))
	bit := map[netlist.GateID]bool{}
	for i, g := range d.free {
		bit[g] = a>>uint(i)&1 == 1
	}
	dff := map[netlist.GateID]int{}
	for i, q := range d.dffs {
		dff[q] = i
	}
	romData := map[netlist.GateID]int{}
	if rom != nil {
		for j, g := range rom.Data {
			romData[g] = j
		}
	}
	for i := range n.Gates {
		g, id := &n.Gates[i], netlist.GateID(i)
		switch {
		case g.Kind == netlist.Dff:
			vals[i] = s>>uint(dff[id])&1 == 1
		case g.Kind == netlist.Input:
			if j, ok := romData[id]; ok {
				addr := 0
				for b, ab := range rom.Addr {
					if vals[ab] {
						addr |= 1 << uint(b)
					}
				}
				vals[i] = vals[rom.En] && addr < len(rom.Words) && rom.Words[addr]>>uint(j)&1 == 1
			} else if ram != nil && id == ram.Data[0] {
				vals[i] = vals[ram.En] && bit[id]
			} else {
				vals[i] = bit[id]
			}
		default:
			in := func(p int) logic.V {
				if g.In[p] == netlist.None {
					return logic.X
				}
				return logic.FromBool(vals[g.In[p]])
			}
			vals[i] = g.Kind.Eval(in(0), in(1), in(2)) == logic.One
		}
	}
	return vals
}

// next is the state a frame's flip-flops load at the clock edge.
func (d *oracleDesign) next(vals []bool) uint {
	var s uint
	for i, q := range d.dffs {
		if vals[d.spec.N.Gates[q].In[0]] {
			s |= 1 << uint(i)
		}
	}
	return s
}

// oracleFrame is one settled frame: a flip-flop state, the state the
// clock edge loads from it, and whether each candidate holds in it.
type oracleFrame struct {
	state, next uint
	holds       []bool // per candidate
}

// frames settles every frame of d (state × havoc bits).
func (d *oracleDesign) frames(cands []candidate) []oracleFrame {
	nS, nA := uint(1)<<uint(len(d.dffs)), uint(1)<<uint(len(d.free))
	var frames []oracleFrame
	for s := uint(0); s < nS; s++ {
		for a := uint(0); a < nA; a++ {
			vals := d.eval(s, a)
			f := oracleFrame{state: s, next: d.next(vals)}
			for ci := range cands {
				f.holds = append(f.holds, cands[ci].inv.Holds(func(g netlist.GateID) bool { return vals[g] }))
			}
			frames = append(frames, f)
		}
	}
	return frames
}

// successors returns the frames whose state some frame in from loads,
// restricted to ok.
func (d *oracleDesign) successors(frames []oracleFrame, from []bool, ok func(*oracleFrame) bool) []bool {
	states := make([]bool, 1<<uint(len(d.dffs)))
	for i := range frames {
		if from[i] {
			states[frames[i].next] = true
		}
	}
	out := make([]bool, len(frames))
	for i := range frames {
		out[i] = states[frames[i].state] && ok(&frames[i])
	}
	return out
}

// checkReachable fails t unless every candidate in set holds in every
// frame reachable from reset.
func (d *oracleDesign) checkReachable(t *testing.T, frames []oracleFrame, cands []candidate, set []int, who string) {
	t.Helper()
	reach := make([]bool, len(frames))
	for i := range frames {
		reach[i] = d.isReset(frames[i].state)
	}
	for changed := true; changed; {
		changed = false
		next := d.successors(frames, reach, func(*oracleFrame) bool { return true })
		for i := range reach {
			if next[i] && !reach[i] {
				reach[i], changed = true, true
			}
		}
	}
	for _, ci := range set {
		for i := range frames {
			if reach[i] && !frames[i].holds[ci] {
				t.Fatalf("%s proved %s, violated in a reachable frame", who, cands[ci].inv.Name)
			}
		}
	}
}

// oracleResult is the ladder's outcome computed by enumeration.
type oracleResult struct {
	k          int
	invariants []equiv.Invariant
	core       map[netlist.GateID]int
	dropped    int
}

// exactLadder runs Prove's ladder over cands by enumerating every frame,
// climbing it bottom-up. Level k drops the candidates violated in a
// frame of some reset run of k frames (every frame satisfying the proved
// set), then keeps the greatest subset G such that every run of k+1
// frames satisfying the proved set throughout and G in its first k
// frames satisfies G in its last.
func exactLadder(t *testing.T, d *oracleDesign, cands []candidate) oracleResult {
	frames := d.frames(cands)
	all := func(f *oracleFrame, set []int) bool {
		for _, ci := range set {
			if !f.holds[ci] {
				return false
			}
		}
		return true
	}

	res := oracleResult{core: map[netlist.GateID]int{}}
	var proved []int
	provedK := map[int]int{}
	active := make([]int, len(cands))
	for i := range active {
		active[i] = i
	}
	inP := func(f *oracleFrame) bool { return all(f, proved) }
	for _, k := range d.opts.ladder() {
		if len(active) == 0 {
			break
		}
		res.k = k
		// Base: frames within k of reset.
		cur := make([]bool, len(frames))
		for i := range frames {
			cur[i] = d.isReset(frames[i].state) && inP(&frames[i])
		}
		var kept []int
		reach := append([]bool(nil), cur...)
		for step := 1; step < k; step++ {
			cur = d.successors(frames, cur, inP)
			for i := range reach {
				reach[i] = reach[i] || cur[i]
			}
		}
		for _, ci := range active {
			ok := true
			for i := range frames {
				ok = ok && (!reach[i] || frames[i].holds[ci])
			}
			if ok {
				kept = append(kept, ci)
			}
		}
		// Step: greatest k-inductive subset of kept.
		g := kept
		for len(g) > 0 {
			good := func(f *oracleFrame) bool { return inP(f) && all(f, g) }
			w := make([]bool, len(frames))
			for i := range frames {
				w[i] = good(&frames[i])
			}
			for step := 1; step < k; step++ {
				w = d.successors(frames, w, good)
			}
			last := d.successors(frames, w, inP)
			var keep []int
			for _, ci := range g {
				ok := true
				for i := range frames {
					ok = ok && (!last[i] || frames[i].holds[ci])
				}
				if ok {
					keep = append(keep, ci)
				}
			}
			if len(keep) == len(g) {
				break
			}
			g = keep
		}
		inG := map[int]bool{}
		for _, ci := range g {
			inG[ci] = true
			provedK[ci] = k
		}
		proved = append(proved, g...)
		var retry []int
		for _, ci := range kept {
			if !inG[ci] {
				retry = append(retry, ci)
			}
		}
		active = retry
	}
	d.checkReachable(t, frames, cands, proved, "oracle")

	res.dropped = len(cands) - len(proved)
	for ci := range cands {
		k, ok := provedK[ci]
		if !ok {
			continue
		}
		if c := cands[ci]; c.claim >= 0 {
			res.core[d.claims[c.claim].Gate] = k
		} else {
			iv := c.inv
			iv.K = k
			res.invariants = append(res.invariants, iv)
		}
	}
	return res
}

// TestProveMatchesExactFixpoint: on every random design Prove proves
// exactly the invariants, inductive core and drop count the enumeration
// oracle computes, with the same K labels, and repeats itself exactly,
// solve counts included.
func TestProveMatchesExactFixpoint(t *testing.T) {
	const designs = 300
	var proved, dropped int
	for seed := int64(0); seed < designs; seed++ {
		d := randomDesign(seed)
		e := &engine{spec: d.spec, opts: d.opts, res: &Result{}}
		if err := e.infer(d.claims); err != nil {
			t.Fatalf("design %d: infer: %v", seed, err)
		}
		want := exactLadder(t, d, e.cands)

		got, err := Prove(context.Background(), d.spec, d.claims, d.opts)
		if err != nil {
			t.Fatalf("design %d: Prove: %v", seed, err)
		}
		if got.BudgetExhausted {
			t.Fatalf("design %d: budget exhausted", seed)
		}
		if !reflect.DeepEqual(got.Invariants, want.invariants) {
			t.Errorf("design %d (K=%d): invariants\n got %s\nwant %s", seed, d.opts.K,
				equiv.FormatInvariants(got.Invariants), equiv.FormatInvariants(want.invariants))
		}
		if !reflect.DeepEqual(got.Core, want.core) {
			t.Errorf("design %d: core %v, want %v", seed, got.Core, want.core)
		}
		if got.Dropped != want.dropped || got.K != want.k {
			t.Errorf("design %d: dropped %d at K=%d, want %d at K=%d", seed, got.Dropped, got.K, want.dropped, want.k)
		}
		again, err := Prove(context.Background(), d.spec, d.claims, d.opts)
		if err != nil {
			t.Fatalf("design %d: second Prove: %v", seed, err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Errorf("design %d: two Prove runs differ:\n%+v\n%+v", seed, got, again)
		}
		proved += len(got.Invariants) + len(got.Core)
		dropped += got.Dropped
	}
	// Guard against a generator that makes the oracle vacuous.
	if proved == 0 || dropped == 0 {
		t.Fatalf("over %d designs: %d proved, %d dropped", designs, proved, dropped)
	}
}

// TestProveUnderBudgetIsSound: under conflict budgets of 1 to 4, small
// enough that checks are abandoned, Prove may prove less or label
// deeper, never more: every returned invariant and core member is one
// the exact oracle proves, with a label no shallower than the oracle's,
// and holds in every reachable frame; and two runs are identical.
func TestProveUnderBudgetIsSound(t *testing.T) {
	const designs = 300
	var exhausted, returned, deeper int
	for seed := int64(0); seed < designs; seed++ {
		d := randomDesign(seed)
		e := &engine{spec: d.spec, opts: d.opts, res: &Result{}}
		if err := e.infer(d.claims); err != nil {
			t.Fatalf("design %d: infer: %v", seed, err)
		}
		want := exactLadder(t, d, e.cands)
		wantK := map[string]int{}
		for _, iv := range want.invariants {
			wantK[iv.Name] = iv.K
		}

		frames := d.frames(e.cands)
		for budget := int64(1); budget <= 4; budget++ {
			opts := d.opts
			opts.QueryBudget = budget
			got, err := Prove(context.Background(), d.spec, d.claims, opts)
			if err != nil {
				t.Fatalf("design %d: Prove: %v", seed, err)
			}
			again, err := Prove(context.Background(), d.spec, d.claims, opts)
			if err != nil {
				t.Fatalf("design %d: second Prove: %v", seed, err)
			}
			if !reflect.DeepEqual(got, again) {
				t.Errorf("design %d, budget %d: two Prove runs differ:\n%+v\n%+v", seed, budget, got, again)
			}
			if got.BudgetExhausted {
				exhausted++
			}

			var set []int // candidate indexes of everything returned
			for ci, c := range e.cands {
				k, ok := 0, false
				wk, exact := 0, false
				if c.claim >= 0 {
					g := d.claims[c.claim].Gate
					k, ok = got.Core[g]
					wk, exact = want.core[g]
				} else {
					for _, iv := range got.Invariants {
						if iv.Name == c.inv.Name {
							k, ok = iv.K, true
							iv.K = c.inv.K
							if !reflect.DeepEqual(iv, c.inv) {
								t.Errorf("design %d: returned %s is not its candidate", seed, iv.Name)
							}
						}
					}
					wk, exact = wantK[c.inv.Name]
				}
				if !ok {
					continue
				}
				switch {
				case !exact:
					t.Errorf("design %d: %s proved at K=%d, the exact ladder does not prove it", seed, c.inv.Name, k)
				case k < wk:
					t.Errorf("design %d: %s proved at K=%d, exact K=%d", seed, c.inv.Name, k, wk)
				case k > wk:
					deeper++
				}
				set = append(set, ci)
			}
			if len(set) != len(got.Invariants)+len(got.Core) {
				t.Fatalf("design %d: %d of %d returned invariants are candidates", seed, len(set), len(got.Invariants)+len(got.Core))
			}
			returned += len(set)
			d.checkReachable(t, frames, e.cands, set, "Prove")
		}
	}
	// Guard against budgets too loose to exhaust or too tight to prove.
	if exhausted == 0 || returned == 0 {
		t.Fatalf("over %d designs: %d runs exhausted a budget, %d invariants returned", designs, exhausted, returned)
	}
	t.Logf("%d of %d runs exhausted a budget; %d invariants returned, %d labelled deeper than exact", exhausted, 4*designs, returned, deeper)
}

// TestLanesMatchFrameSemantics: from random per-lane states, every lane
// of a settled frame agrees gate by gate with the oracle's frame
// evaluator on that lane's state and havoc bits, the clock edge loads
// each flip-flop's D value, and each candidate's violation mask agrees
// lane by lane with Invariant.Holds.
func TestLanesMatchFrameSemantics(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		d := randomDesign(seed)
		e := &engine{spec: d.spec, opts: d.opts, res: &Result{}}
		if err := e.infer(d.claims); err != nil {
			t.Fatalf("design %d: infer: %v", seed, err)
		}
		l, err := newLanes(d.spec, uint64(seed)+1)
		if err != nil {
			t.Fatalf("design %d: %v", seed, err)
		}
		rng := xorshift(uint64(seed) + 7)
		for _, q := range d.dffs {
			l.val[q] = rng.next()
		}
		for frame := 0; frame < 3; frame++ {
			if frame > 0 {
				want := make([]uint64, len(d.dffs))
				for i, q := range d.dffs {
					want[i] = l.val[d.spec.N.Gates[q].In[0]]
				}
				l.clock()
				for i, q := range d.dffs {
					if l.val[q] != want[i] {
						t.Fatalf("design %d: clock edge loads %x into flip-flop %d, want its D value %x", seed, l.val[q], q, want[i])
					}
				}
			}
			l.settle()
			for lane := uint(0); lane < 64; lane++ {
				at := func(g netlist.GateID) bool { return l.val[g]>>lane&1 == 1 }
				var s, a uint
				for i, q := range d.dffs {
					if at(q) {
						s |= 1 << uint(i)
					}
				}
				for i, g := range d.free {
					if at(g) {
						a |= 1 << uint(i)
					}
				}
				want := d.eval(s, a)
				for g := range want {
					if at(netlist.GateID(g)) != want[g] {
						t.Fatalf("design %d frame %d lane %d: gate %d (%s) = %v, want %v",
							seed, frame, lane, g, d.spec.N.Gates[g].Kind, !want[g], want[g])
					}
				}
				for ci := range e.cands {
					iv := &e.cands[ci].inv
					if (violated(iv, l.val)>>lane&1 == 1) == iv.Holds(at) {
						t.Fatalf("design %d lane %d: violation mask of %s disagrees with Holds", seed, lane, iv.Name)
					}
				}
			}
		}
	}
}
