package induct

import (
	"fmt"
	"math/bits"

	"bespoke/internal/equiv"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/sat"
)

// xorshift is a xorshift64* generator: cheap, seedable, and identical on
// every platform, so everything drawn from it is reproducible.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x >> 12
	*x ^= *x << 25
	*x ^= *x >> 27
	return uint64(*x) * 0x2545F4914F6CDD1D
}

// laneSeed seeds the counterexample lanes of every Prove call, so the
// drops they find, and with them Result.Queries, repeat run to run.
const laneSeed = 0xD1B54A32D192ED03

// lanes evaluates one frame of the unrolled transition relation in 64
// independent lanes, two-valued, with exactly addFrame's semantics:
// inputs no memory drives take fresh random values every frame, the ROM
// reads its image exactly (0 when disabled), and the RAM reads 0 when
// disabled and a random word otherwise. Bit l of every word is lane l.
// The gates are levelized by netlist.Compile with the memory read paths
// as blocks, so one in-order pass settles a frame; nothing allocates
// after newLanes.
type lanes struct {
	val  []uint64 // per gate
	ops  []laneOp // combinational gates, level by level
	segs []int32  // ops[segs[l]:segs[l+1]] is level l
	// blocksAt lists, per level, the memory reads to run once the level
	// has settled.
	blocksAt [][]int32
	romBlock int32 // block index of the ROM, or -1; any other is the RAM
	rom      *equiv.ROMSpec
	ram      *equiv.RAMSpec
	free     []netlist.GateID // inputs no memory drives
	dffs     []netlist.GateID
	dffD     []int32
	next     []uint64 // scratch for the clock edge
	rng      xorshift
}

// laneOp is one combinational gate in evaluation order. Unused operands
// repeat a so every load stays in range.
type laneOp struct {
	kind         netlist.Kind
	out, a, b, s int32
}

// newLanes compiles spec's netlist and memories into a lane evaluator.
func newLanes(spec *Spec, seed uint64) (*lanes, error) {
	n := spec.N
	l := &lanes{rom: spec.ROM, ram: spec.RAM, romBlock: -1, rng: xorshift(seed)}
	var blocks []netlist.BlockPins
	if spec.ROM != nil {
		l.romBlock = int32(len(blocks))
		in := append(append([]netlist.GateID(nil), spec.ROM.Addr...), spec.ROM.En)
		blocks = append(blocks, netlist.BlockPins{Inputs: in, Outputs: spec.ROM.Data})
	}
	if spec.RAM != nil {
		blocks = append(blocks, netlist.BlockPins{Inputs: []netlist.GateID{spec.RAM.En}, Outputs: spec.RAM.Data})
	}
	sched, err := netlist.Compile(n, blocks)
	if err != nil {
		return nil, fmt.Errorf("induct: lane schedule: %w", err)
	}
	l.segs, l.blocksAt = sched.QueueOff, sched.BlocksAt
	l.dffs, l.dffD = sched.Dffs, sched.DffD
	l.next = make([]uint64, len(l.dffs))
	l.val = make([]uint64, len(n.Gates))

	driven := make([]bool, len(n.Gates))
	for _, b := range blocks {
		for _, out := range b.Outputs {
			driven[out] = true
		}
	}
	l.ops = make([]laneOp, sched.QueueOff[len(sched.QueueOff)-1])
	pos := append([]int32(nil), sched.QueueOff...)
	for i := range n.Gates {
		g := &n.Gates[i]
		switch {
		case g.Kind == netlist.Const1:
			l.val[i] = ^uint64(0)
		case g.Kind == netlist.Input && !driven[i]:
			l.free = append(l.free, netlist.GateID(i))
		case !g.Kind.IsSeq() && g.Kind.NumInputs() > 0:
			op := laneOp{kind: g.Kind, out: int32(i), a: int32(g.In[0])}
			op.b, op.s = op.a, op.a
			if g.Kind.NumInputs() > 1 {
				op.b = int32(g.In[1])
			}
			if g.Kind == netlist.Mux {
				op.s = int32(g.In[2])
			}
			lv := sched.Levels[i]
			l.ops[pos[lv]] = op
			pos[lv]++
		}
	}
	return l, nil
}

// load broadcasts the flip-flop state of frame f in s's model to every
// lane.
func (l *lanes) load(s *sat.Solver, f *equiv.Frame) {
	for _, q := range l.dffs {
		l.val[q] = 0
		if s.Value(f.Var(q)) {
			l.val[q] = ^uint64(0)
		}
	}
}

// settle draws the frame's random inputs and evaluates every gate and
// memory read of the current state.
func (l *lanes) settle() {
	for _, g := range l.free {
		l.val[g] = l.rng.next()
	}
	val := l.val
	for lvl, reads := range l.blocksAt {
		for _, op := range l.ops[l.segs[lvl]:l.segs[lvl+1]] {
			a, b := val[op.a], val[op.b]
			var v uint64
			switch op.kind {
			case netlist.Buf:
				v = a
			case netlist.Not:
				v = ^a
			case netlist.And:
				v = a & b
			case netlist.Or:
				v = a | b
			case netlist.Nand:
				v = ^(a & b)
			case netlist.Nor:
				v = ^(a | b)
			case netlist.Xor:
				v = a ^ b
			case netlist.Xnor:
				v = ^(a ^ b)
			case netlist.Mux:
				sel := val[op.s]
				v = a&^sel | b&sel
			}
			val[op.out] = v
		}
		for _, blk := range reads {
			if blk == l.romBlock {
				l.readROM()
			} else {
				l.readRAM()
			}
		}
	}
}

// readROM drives the ROM data nets: the image word at each enabled
// lane's address (0 past the image), 0 in disabled lanes.
func (l *lanes) readROM() {
	r := l.rom
	for _, d := range r.Data {
		l.val[d] = 0
	}
	for en := l.val[r.En]; en != 0; en &= en - 1 {
		lane := uint(bits.TrailingZeros64(en))
		addr := 0
		for i, a := range r.Addr {
			addr |= int(l.val[a]>>lane&1) << uint(i)
		}
		if addr >= len(r.Words) {
			continue
		}
		w := r.Words[addr]
		for j, d := range r.Data {
			l.val[d] |= uint64(w>>uint(j)&1) << lane
		}
	}
}

// readRAM drives the RAM data nets: random in enabled lanes, 0 in
// disabled ones (the contents are havoc).
func (l *lanes) readRAM() {
	en := l.val[l.ram.En]
	for _, d := range l.ram.Data {
		l.val[d] = l.rng.next() & en
	}
}

// clock moves every flip-flop to its settled D input.
func (l *lanes) clock() {
	for i, d := range l.dffD {
		l.next[i] = l.val[d]
	}
	for i, q := range l.dffs {
		l.val[q] = l.next[i]
	}
}

// violated returns the lanes in which iv fails: bit l is set exactly when
// iv.Holds is false on lane l's values.
func violated(iv *equiv.Invariant, val []uint64) uint64 {
	if !iv.IsCube() {
		from, to := val[iv.From], val[iv.To]
		if iv.FromVal != logic.One {
			from = ^from
		}
		if iv.ToVal != logic.One {
			to = ^to
		}
		return from &^ to
	}
	var holds uint64
	for _, w := range iv.Cubes {
		m := ^uint64(0)
		for i, bit := range iv.Bits {
			if i >= 16 {
				break
			}
			switch {
			case w.Mask>>uint(i)&1 == 1:
			case w.Val>>uint(i)&1 == 1:
				m &= val[bit]
			default:
				m &^= val[bit]
			}
		}
		if holds |= m; holds == ^uint64(0) {
			break
		}
	}
	return ^holds
}
