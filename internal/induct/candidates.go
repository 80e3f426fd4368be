package induct

import (
	"fmt"
	"math/bits"
	"sort"

	"bespoke/internal/cut"
	"bespoke/internal/equiv"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
)

// infer fills the candidate pool: the claims themselves, ternary-fixpoint
// flip-flop constants, per-bus value-set/interval/stuck-bit domains
// seeded from the dynamic record and the program image, and
// sample-filtered pairwise implications. Everything here is a HYPOTHESIS
// — Prove discharges or discards each one.
func (e *engine) infer(claims []cut.Claim) error {
	boot, err := e.bootUnroll(e.opts.k())
	if err != nil {
		return err
	}
	claimed := make(map[netlist.GateID]logic.V, len(claims))
	for i, c := range claims {
		claimed[c.Gate] = c.Val
		e.cands = append(e.cands, candidate{claim: i, inv: equiv.Invariant{
			Name:  fmt.Sprintf("claim g%d=%s", c.Gate, c.Val),
			Bits:  []netlist.GateID{c.Gate},
			Cubes: []logic.Word{constCube(c.Val)},
		}})
	}
	if err := e.inferTernary(claimed); err != nil {
		return err
	}
	e.inferBusDomains(boot)
	e.inferImplications(claimed)
	for i := range e.spec.Extra {
		cand := candidate{claim: -1, inv: e.spec.Extra[i]}
		cand.inv.Cubes = widenCubes(cand.inv.Cubes, cand.inv.Bits, boot)
		e.cands = append(e.cands, cand)
	}
	return nil
}

func constCube(v logic.V) logic.Word {
	w := logic.Word{Val: 0, Mask: 0xFFFE} // bit 0 known, rest X
	if v == logic.One {
		w.Val = 1
	}
	return w
}

// inferTernary runs the ternary constant fixpoint over the flip-flop
// next-state cones: starting from the reset state, repeatedly settle one
// frame with all inputs X and havoc RAM, merge each flip-flop's D value
// into its state, and iterate to a fixpoint. A flip-flop still concrete
// at the fixpoint is constant in every reachable state this abstraction
// can see — proposed as a candidate (and still re-proved by induction;
// the abstraction result is not trusted).
func (e *engine) inferTernary(claimed map[netlist.GateID]logic.V) error {
	t, err := e.newTernFrame()
	if err != nil {
		return err
	}
	n := e.spec.N
	t.settle()
	for iter := 0; iter < 4*len(t.dffs)+8; iter++ {
		changed := false
		for _, d := range t.dffs {
			next := logic.Merge(t.vals[d], t.at(n.Gates[d].In[0]))
			if next != t.vals[d] {
				t.vals[d] = next
				changed = true
			}
		}
		if !changed {
			break
		}
		t.settle()
	}
	for _, d := range t.dffs {
		v := t.vals[d]
		if v == logic.X {
			continue
		}
		if cv, ok := claimed[d]; ok && cv == v {
			continue // already a claim candidate
		}
		e.cands = append(e.cands, candidate{claim: -1, inv: equiv.Invariant{
			Name:  fmt.Sprintf("ternary g%d=%s", d, v),
			Bits:  []netlist.GateID{d},
			Cubes: []logic.Word{constCube(v)},
		}})
	}
	return nil
}

// ternFrame is a reusable ternary evaluator over one clock frame of the
// design: flip-flops hold state in vals, combinational gates recompute
// in topological order with the exact ROM read folded in, primary
// inputs and RAM data stay X (havoc).
type ternFrame struct {
	e    *engine
	topo []netlist.GateID
	vals []logic.V
	dffs []netlist.GateID
}

// newTernFrame builds a frame evaluator pinned to the concrete reset
// state.
func (e *engine) newTernFrame() (*ternFrame, error) {
	n := e.spec.N
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	t := &ternFrame{e: e, topo: topo, vals: make([]logic.V, len(n.Gates))}
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case netlist.Const0:
			t.vals[i] = logic.Zero
		case netlist.Const1:
			t.vals[i] = logic.One
		case netlist.Dff:
			t.vals[i] = n.Gates[i].Reset
			t.dffs = append(t.dffs, netlist.GateID(i))
		default:
			t.vals[i] = logic.X
		}
	}
	return t, nil
}

func (t *ternFrame) at(id netlist.GateID) logic.V {
	if id == netlist.None {
		return logic.X
	}
	return t.vals[id]
}

// settle recomputes the combinational fan-out of the current state. The
// ROM read feeds combinational logic that feeds the ROM address; a
// short inner iteration reaches the frame fixpoint.
func (t *ternFrame) settle() {
	n := t.e.spec.N
	for pass := 0; pass < 4; pass++ {
		for _, id := range t.topo {
			g := &n.Gates[id]
			t.vals[id] = g.Kind.Eval(t.at(g.In[0]), t.at(g.In[1]), t.at(g.In[2]))
		}
		if !t.e.ternaryROMRead(t.vals) {
			break
		}
	}
}

// step advances every flip-flop to its D input simultaneously — the
// exact one-frame transition, no widening — and settles the new frame.
func (t *ternFrame) step() {
	n := t.e.spec.N
	next := make([]logic.V, len(t.dffs))
	for i, d := range t.dffs {
		next[i] = t.at(n.Gates[d].In[0])
	}
	for i, d := range t.dffs {
		t.vals[d] = next[i]
	}
	t.settle()
}

// bootUnroll steps the ternary frame evaluator through the first frames
// from reset and snapshots each settled frame. The dynamic record only
// covers settled post-boot cycles, so the boot transients — the reset
// state itself and the reset-vector fetch — are reachable states the
// candidate seeds never saw; without them every pc/state value-set
// candidate is falsified AT RESET and Houdini discards exactly the
// anchors the fetch path rests on. A fully-known ternary value at frame
// t is the value every real run takes at frame t (inputs are X, RAM is
// havoc), so unioning these words into a candidate is sound widening.
func (e *engine) bootUnroll(frames int) ([][]logic.V, error) {
	t, err := e.newTernFrame()
	if err != nil {
		return nil, err
	}
	out := make([][]logic.V, 0, frames)
	t.settle()
	for f := 0; f < frames; f++ {
		out = append(out, append([]logic.V(nil), t.vals...))
		t.step()
	}
	return out, nil
}

// frameWord folds the ternary values of a bus into a fully-known word;
// ok is false when any bit is unknown.
func frameWord(vals []logic.V, bits []netlist.GateID) (logic.Word, bool) {
	var w logic.Word
	for i, b := range bits {
		switch vals[b] {
		case logic.One:
			w.Val |= 1 << uint(i)
		case logic.Zero:
		default:
			return logic.Word{}, false
		}
	}
	return w, true
}

// covered reports that the fully-known word w matches some cube.
func covered(w logic.Word, cubes []logic.Word) bool {
	for _, c := range cubes {
		if (w.Val^c.Val)&^c.Mask == 0 {
			return true
		}
	}
	return false
}

// widenCubes unions every boot-frame word of bits that no existing cube
// covers (see bootUnroll for why this is sound and necessary).
func widenCubes(cubes []logic.Word, bits []netlist.GateID, boot [][]logic.V) []logic.Word {
	out := cubes
	for _, vals := range boot {
		w, ok := frameWord(vals, bits)
		if !ok {
			continue
		}
		if !covered(w, out) {
			out = append(out, w)
		}
	}
	return out
}

// ternaryROMRead updates the ROM data nets from the current ternary
// address/enable values and reports whether anything changed. RAM data
// nets stay X (havoc).
func (e *engine) ternaryROMRead(vals []logic.V) bool {
	rom := e.spec.ROM
	if rom == nil {
		return false
	}
	out := make([]logic.V, len(rom.Data))
	switch vals[rom.En] {
	case logic.Zero:
		for j := range out {
			out[j] = logic.Zero
		}
	case logic.One:
		addr, known := uint32(0), true
		for i, b := range rom.Addr {
			switch vals[b] {
			case logic.One:
				addr |= 1 << uint(i)
			case logic.X:
				known = false
			}
		}
		if known && int(addr) < len(rom.Words) {
			w := rom.Words[addr]
			for j := range out {
				out[j] = logic.FromBool(w>>uint(j)&1 == 1)
			}
		} else {
			for j := range out {
				out[j] = logic.X
			}
		}
	default:
		for j := range out {
			out[j] = logic.X
		}
	}
	changed := false
	for j, d := range rom.Data {
		if vals[d] != out[j] {
			vals[d] = out[j]
			changed = true
		}
	}
	return changed
}

// inferBusDomains proposes per-bus value-set candidates: the exact
// recorded set widened with the boot-transient words, its stuck-bit
// cube, its interval cover, and (for the instruction register) the set
// of program-image words.
func (e *engine) inferBusDomains(boot [][]logic.V) {
	seeds := make(map[string]*symexec.BusDomain, len(e.spec.Seeds))
	for i := range e.spec.Seeds {
		seeds[e.spec.Seeds[i].Name] = &e.spec.Seeds[i]
	}
	for _, bus := range e.spec.Buses {
		if len(bus.Bits) == 0 || len(bus.Bits) > 16 {
			continue
		}
		seed := seeds[bus.Name]
		if seed == nil || seed.Exceeded || len(seed.Words) == 0 {
			continue
		}
		add := func(tag string, cubes []logic.Word) {
			if len(cubes) == 0 || len(cubes) > symexec.MaxDomainWords {
				return
			}
			e.cands = append(e.cands, candidate{claim: -1, inv: equiv.Invariant{
				Name:  bus.Name + tag,
				Bits:  append([]netlist.GateID(nil), bus.Bits...),
				Cubes: cubes,
			}})
		}
		words := widenCubes(append([]logic.Word(nil), seed.Words...), bus.Bits, boot)
		add("", words)
		if stuck, ok := stuckCube(words, len(bus.Bits)); ok {
			add("#stuck", []logic.Word{stuck})
		}
		if lo, hi, ok := seedRange(words, len(bus.Bits)); ok && hi > lo {
			add("#range", intervalCubes(lo, hi))
		}
		if bus.Name == "ir" && e.spec.ROM != nil {
			add("#image", imageWords(e.spec.ROM.Words, words))
		}
	}
}

// stuckCube folds a cube set into the single cube of its always-known,
// always-equal bits; ok is false when no bit is pinned.
func stuckCube(words []logic.Word, nbits int) (logic.Word, bool) {
	var fixed, val uint16
	fixed = ^uint16(0)
	if nbits < 16 {
		fixed = 1<<uint(nbits) - 1
	}
	first := true
	for _, w := range words {
		known := ^w.Mask
		if first {
			val = w.Val & known
			fixed &= known
			first = false
			continue
		}
		fixed &= known &^ (val ^ w.Val)
	}
	if fixed == 0 {
		return logic.Word{}, false
	}
	return logic.Word{Val: val & fixed, Mask: ^fixed}, true
}

// seedRange returns the [lo,hi] value range of a fully-known cube set;
// ok is false when any cube has unknown bits within the bus width.
func seedRange(words []logic.Word, nbits int) (lo, hi uint16, ok bool) {
	width := uint16(^uint16(0))
	if nbits < 16 {
		width = 1<<uint(nbits) - 1
	}
	lo, hi = ^uint16(0), 0
	for _, w := range words {
		if w.Mask&width != 0 {
			return 0, 0, false
		}
		v := w.Val & width
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, len(words) > 0
}

// intervalCubes covers the inclusive range [lo,hi] with aligned
// power-of-two cubes (at most 30 for any 16-bit range).
func intervalCubes(lo, hi uint16) []logic.Word {
	var out []logic.Word
	l, h := uint32(lo), uint32(hi)
	for l <= h {
		size := l & -l
		if size == 0 {
			size = 1 << 16
		}
		for size > h-l+1 {
			size >>= 1
		}
		out = append(out, logic.Word{Val: uint16(l), Mask: uint16(size - 1)})
		l += size
	}
	return out
}

// imageWords is the deduplicated value set of the program image plus the
// recorded seed values (the reset value of the instruction register need
// not be an image word).
func imageWords(rom []uint16, seed []logic.Word) []logic.Word {
	set := make(map[uint16]bool, len(rom))
	for _, w := range rom {
		set[w] = true
	}
	out := make([]logic.Word, 0, len(set)+len(seed))
	var vals []int
	for v := range set {
		vals = append(vals, int(v))
	}
	sort.Ints(vals)
	for _, v := range vals {
		out = append(out, logic.KnownWord(uint16(v)))
	}
	for _, w := range seed {
		if w.Mask == 0 && set[w.Val] {
			continue
		}
		out = append(out, w)
	}
	return out
}

// maxImplications caps the pairwise implication candidates.
const maxImplications = 2048

// inferImplications proposes pairwise flip-flop implications a=va ->
// b=vb. Antecedents range over control-bus bits, consequents over all
// bus bits; a candidate must be consistent with every concrete sample
// (X samples count as matching) and non-vacuous in them. Contrapositive
// duplicates are canonicalized away and the total is capped at
// maxImplications.
func (e *engine) inferImplications(claimed map[netlist.GateID]logic.V) {
	ss := e.spec.Samples
	if ss == nil || len(ss.Vals) == 0 {
		return
	}
	idx := make(map[netlist.GateID]int, len(ss.Dffs))
	for i, d := range ss.Dffs {
		idx[d] = i
	}
	ncyc := len(ss.Vals)
	nw := (ncyc + 63) / 64

	// Per-tracked-bit sample bitplanes.
	type plane struct {
		gate        netlist.GateID
		ones, known []uint64
		n1, n0      int // known-sample tallies
	}
	mk := func(g netlist.GateID) *plane {
		p := &plane{gate: g, ones: make([]uint64, nw), known: make([]uint64, nw)}
		si, ok := idx[g]
		if !ok {
			return nil
		}
		for c := 0; c < ncyc; c++ {
			switch ss.Vals[c][si] {
			case logic.One:
				p.ones[c/64] |= 1 << uint(c%64)
				p.known[c/64] |= 1 << uint(c%64)
				p.n1++
			case logic.Zero:
				p.known[c/64] |= 1 << uint(c%64)
				p.n0++
			}
		}
		return p
	}
	var ante, cons []*plane
	anteSet := make(map[netlist.GateID]bool)
	seen := make(map[netlist.GateID]bool)
	for _, bus := range e.spec.Buses {
		for _, b := range bus.Bits {
			if seen[b] || e.spec.N.Gates[b].Kind != netlist.Dff {
				continue
			}
			if _, isClaimed := claimed[b]; isClaimed {
				continue // constants are covered by claims
			}
			p := mk(b)
			if p == nil || p.n1 == 0 || p.n0 == 0 {
				continue // sample-constant or unsampled: no pair signal
			}
			seen[b] = true
			cons = append(cons, p)
			if bus.Control {
				ante = append(ante, p)
				anteSet[b] = true
			}
		}
	}

	// count(a=va ∧ b=vb) over cycles where both are known.
	count := func(a, b *plane, va, vb bool) int {
		n := 0
		for w := 0; w < nw; w++ {
			x, y := a.ones[w], b.ones[w]
			if !va {
				x = ^x
			}
			if !vb {
				y = ^y
			}
			n += bits.OnesCount64(x & y & a.known[w] & b.known[w])
		}
		return n
	}

	total := 0
	for _, a := range ante {
		for _, b := range cons {
			if a.gate == b.gate {
				continue
			}
			// Contrapositive canonical form: when both ends are
			// antecedent-eligible, keep only the lower-gate-first form.
			if anteSet[b.gate] && b.gate < a.gate {
				continue
			}
			for _, va := range []bool{false, true} {
				for _, vb := range []bool{false, true} {
					if count(a, b, va, !vb) != 0 || count(a, b, va, vb) == 0 {
						continue // violated in samples, or vacuous
					}
					if total >= maxImplications {
						return
					}
					total++
					e.cands = append(e.cands, candidate{claim: -1, inv: equiv.Invariant{
						Name:    fmt.Sprintf("g%d=%s->g%d=%s", a.gate, logic.FromBool(va), b.gate, logic.FromBool(vb)),
						From:    a.gate,
						To:      b.gate,
						FromVal: logic.FromBool(va),
						ToVal:   logic.FromBool(vb),
					}})
				}
			}
		}
	}
}
