// Package bitsim is the 64-way bit-parallel twin of internal/sim: the
// same levelized, event-driven, three-valued simulation kernel, but with
// every net holding 64 independent simulation worlds ("lanes") packed
// into two uint64 bitplanes. One pass over the netlist settles 64
// stimuli, fault worlds or mutant programs at once, which is what turns
// fault campaigns, mutation support checks and random cosim from
// thousands of scalar runs into dozens of batched ones.
//
// Encoding: a net's value is W{V, D}. Bit l of D says lane l is defined
// (0 or 1); when set, bit l of V is the value. An undefined (X) lane has
// both bits clear, so the all-X power-on word is the zero value and
// words compare with ==. The per-kind word operations below are derived
// from the logic.V truth tables (X-pessimism included: a known-0 AND
// input forces a known-0 output even when the other input is X) and are
// checked exhaustively against netlist.Kind.Eval in the tests.
//
// Faults live in lanes: a stuck-at is a per-gate force mask applied
// after every evaluation (and at the clock edge for flip-flops), an SEU
// is a single-lane flip-flop flip, and an SET is a single-lane pulse on
// a settled combinational output that expires at the next edge, exactly
// mirroring sim.InjectPulse. Lanes never interact: X in one lane cannot
// leak into another. The live mask names the lanes whose results are
// still read; the memory macros take their plane-level fast paths
// whenever the live lanes agree and serve only live lanes on their
// per-lane paths, so a lane that retires (halted, X-poisoned, over
// budget), or that a partial batch leaves unused, reads X from the
// memories, soon settles into X and stops adding gate events.
package bitsim

import (
	"fmt"

	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// Lanes is the batch width: one uint64 bitplane bit per world.
const Lanes = 64

// W is one net's value across all lanes: V holds the lane values, D the
// lane defined-mask. Invariant: V &^ D == 0 (X lanes keep V at 0), so W
// is canonical and comparable with ==.
type W struct {
	V, D uint64
}

// Splat broadcasts one scalar value to all lanes.
func Splat(v logic.V) W {
	switch v {
	case logic.Zero:
		return W{0, ^uint64(0)}
	case logic.One:
		return W{^uint64(0), ^uint64(0)}
	}
	return W{}
}

// Lane extracts the scalar value of lane l.
func (w W) Lane(l int) logic.V {
	if w.D>>uint(l)&1 == 0 {
		return logic.X
	}
	return logic.V(w.V >> uint(l) & 1)
}

// SetLane returns w with lane l set to v.
func (w W) SetLane(l int, v logic.V) W {
	bit := uint64(1) << uint(l)
	w.V &^= bit
	w.D |= bit
	switch v {
	case logic.One:
		w.V |= bit
	case logic.X:
		w.D &^= bit
	}
	return w
}

// The word-level gate functions. Each is the 64-lane form of the
// three-valued operator: "known" output bits are derived exactly as the
// scalar truth table does (controlling values beat X; X anywhere else
// poisons the lane).

func notW(a W) W { return W{^a.V & a.D, a.D} }

func andW(a, b W) W {
	one := a.V & b.V
	zero := (^a.V & a.D) | (^b.V & b.D)
	return W{one, one | zero}
}

func orW(a, b W) W {
	one := a.V | b.V
	zero := ^a.V & a.D & ^b.V & b.D
	return W{one, one | zero}
}

func xorW(a, b W) W {
	d := a.D & b.D
	return W{(a.V ^ b.V) & d, d}
}

// muxW implements out = sel ? b : a with the scalar engine's X-merge: an
// X select still yields a known value when both data inputs agree.
func muxW(a, b, sel W) W {
	sel1 := sel.V
	sel0 := ^sel.V & sel.D
	selX := ^sel.D
	agree := a.D & b.D & ^(a.V ^ b.V)
	d := sel0&a.D | sel1&b.D | selX&agree
	v := (sel0&a.V | sel1&b.V | selX&a.V) & d
	return W{v, d}
}

// Block is the lane-aware behavioral macro interface, mirroring
// sim.Block without the snapshot half (the bit-parallel engine runs
// concrete batches, never the symbolic explorer).
type Block interface {
	// Inputs returns the nets the block reads during Eval and Clock.
	Inputs() []netlist.GateID
	// Outputs returns the Input-kind gates the block drives.
	Outputs() []netlist.GateID
	// Eval recomputes outputs from current input planes.
	Eval(s *Sim)
	// Clock commits sequential state from settled input planes.
	Clock(s *Sim)
	// Reset restores power-on state.
	Reset(s *Sim)
}

// Sim simulates one netlist plus its blocks across 64 lanes. The hot
// structures are the same CSR arrays as internal/sim; only the value
// representation and the evaluation dispatch differ (a kind switch over
// word ops instead of a truth-table row).
type Sim struct {
	N *netlist.Netlist
	// Val is the current plane pair of every net.
	Val []W
	// Cycle is the number of clock edges since Reset.
	Cycle uint64

	blocks      []Block
	blockSubIdx []int32
	blockSubDat []int32

	levels []int32

	fanIdx []int32
	fanDat []netlist.Reader

	ops []gateOp

	bucketOff  []int32
	bucketNext []int32
	bucketDat  []netlist.GateID
	inQueue    []bool
	blockDirty []bool
	blockAtLvl [][]int32

	pending     int32
	dirtyBlocks int32
	minPend     int32
	minBlockLvl int32

	dffs     []netlist.GateID
	dffD     []int32
	dffReset []logic.V

	// forceMask/forceVal pin gate outputs per lane (stuck-at faults):
	// wherever forceMask is set the evaluated output is overridden with
	// forceVal (forceVal is kept a subset of forceMask so overridden
	// planes stay canonical). anyForce skips the override entirely on
	// clean instances.
	forceMask []uint64
	forceVal  []uint64
	anyForce  bool

	pulsed    []netlist.GateID
	edgeStage []stagedW

	// live masks the lanes whose results are read: all of them until a
	// harness retires some. The memory macros ignore the other lanes.
	live uint64

	resetting bool
}

type stagedW struct {
	id netlist.GateID
	v  W
}

// gateOp packs a gate's operand nets and kind for the settle loop.
type gateOp struct {
	in0, in1, in2 int32
	kind          int32
}

// New builds a bit-parallel simulator for n with the given behavioral
// blocks from the netlist's compiled schedule (netlist.Compile, the same
// plan sim.New builds from).
func New(n *netlist.Netlist, blocks ...Block) (*Sim, error) {
	pins := make([]netlist.BlockPins, len(blocks))
	for i, b := range blocks {
		pins[i] = netlist.BlockPins{Inputs: b.Inputs(), Outputs: b.Outputs()}
	}
	sch, err := netlist.Compile(n, pins)
	if err != nil {
		return nil, err
	}
	nG := len(n.Gates)
	nLvl := len(sch.QueueOff) - 1
	s := &Sim{
		N:           n,
		Val:         make([]W, nG),
		blocks:      blocks,
		blockSubIdx: sch.SubIdx,
		blockSubDat: sch.SubDat,
		levels:      sch.Levels,
		fanIdx:      sch.FanIdx,
		fanDat:      sch.FanDat,
		ops:         make([]gateOp, nG),
		bucketOff:   sch.QueueOff,
		bucketNext:  append([]int32(nil), sch.QueueOff[:nLvl]...),
		bucketDat:   make([]netlist.GateID, sch.QueueOff[nLvl]),
		inQueue:     make([]bool, nG),
		blockDirty:  make([]bool, len(blocks)),
		blockAtLvl:  sch.BlocksAt,
		minPend:     int32(nLvl),
		minBlockLvl: sch.MinBlockLevel,
		dffs:        sch.Dffs,
		dffD:        sch.DffD,
		dffReset:    sch.DffReset,
		forceMask:   make([]uint64, nG),
		forceVal:    make([]uint64, nG),
		live:        ^uint64(0),
	}
	// Flat evaluation operands: unused pins read gate 0 (don't-care for
	// the kind switch, which never loads them).
	for i := range n.Gates {
		g := &n.Gates[i]
		s.ops[i].kind = int32(g.Kind)
		ni := g.Kind.NumInputs()
		if ni > 0 && g.In[0] != netlist.None {
			s.ops[i].in0 = int32(g.In[0])
		}
		if ni > 1 && g.In[1] != netlist.None {
			s.ops[i].in1 = int32(g.In[1])
		}
		if ni > 2 && g.In[2] != netlist.None {
			s.ops[i].in2 = int32(g.In[2])
		}
	}
	return s, nil
}

// eval computes gate id's output planes from its current inputs,
// including any per-lane force override.
func (s *Sim) eval(id netlist.GateID) W {
	op := &s.ops[id]
	var v W
	switch netlist.Kind(op.kind) {
	case netlist.Const0:
		v = Splat(logic.Zero)
	case netlist.Const1:
		v = Splat(logic.One)
	case netlist.Buf:
		v = s.Val[op.in0]
	case netlist.Not:
		v = notW(s.Val[op.in0])
	case netlist.And:
		v = andW(s.Val[op.in0], s.Val[op.in1])
	case netlist.Or:
		v = orW(s.Val[op.in0], s.Val[op.in1])
	case netlist.Nand:
		a := andW(s.Val[op.in0], s.Val[op.in1])
		v = W{^a.V & a.D, a.D}
	case netlist.Nor:
		a := orW(s.Val[op.in0], s.Val[op.in1])
		v = W{^a.V & a.D, a.D}
	case netlist.Xor:
		v = xorW(s.Val[op.in0], s.Val[op.in1])
	case netlist.Xnor:
		a := xorW(s.Val[op.in0], s.Val[op.in1])
		v = W{^a.V & a.D, a.D}
	case netlist.Mux:
		v = muxW(s.Val[op.in0], s.Val[op.in1], s.Val[op.in2])
	default:
		// Input/Dff never enter the event queue.
		v = s.Val[id]
	}
	if s.anyForce {
		if m := s.forceMask[id]; m != 0 {
			v.V = v.V&^m | s.forceVal[id]
			v.D |= m
		}
	}
	return v
}

// drive sets the planes of net id and schedules fanout. It is the only
// mutation point for net values.
func (s *Sim) drive(id netlist.GateID, v W) {
	if v == s.Val[id] {
		return
	}
	s.Val[id] = v
	for j := s.fanIdx[id]; j < s.fanIdx[id+1]; j++ {
		e := s.fanDat[j]
		if !s.inQueue[e.ID] {
			s.inQueue[e.ID] = true
			nx := s.bucketNext[e.Level]
			s.bucketDat[nx] = e.ID
			s.bucketNext[e.Level] = nx + 1
			s.pending++
			if e.Level < s.minPend {
				s.minPend = e.Level
			}
		}
	}
	for j := s.blockSubIdx[id]; j < s.blockSubIdx[id+1]; j++ {
		if bi := s.blockSubDat[j]; !s.blockDirty[bi] {
			s.blockDirty[bi] = true
			s.dirtyBlocks++
		}
	}
}

// Drive sets a primary input's planes (testbench use).
func (s *Sim) Drive(id netlist.GateID, v W) {
	if s.N.Gates[id].Kind != netlist.Input {
		panic("bitsim: Drive on non-input gate") // panic-ok: Drive on a non-input is a harness coding error
	}
	s.drive(id, v)
}

// DriveLane sets lane l of a primary input.
func (s *Sim) DriveLane(id netlist.GateID, l int, v logic.V) {
	if s.N.Gates[id].Kind != netlist.Input {
		panic("bitsim: DriveLane on non-input gate") // panic-ok: DriveLane on a non-input is a harness coding error
	}
	s.drive(id, s.Val[id].SetLane(l, v))
}

// BlockDrive is used by Block implementations to drive their output
// gates during Eval.
func (s *Sim) BlockDrive(id netlist.GateID, v W) {
	if v != s.Val[id] {
		s.drive(id, v)
	}
}

// Settle propagates all pending changes until the combinational network
// is stable, in ascending level order; each gate and block evaluates at
// most once per settle.
func (s *Sim) Settle() {
	if s.pending == 0 && s.dirtyBlocks == 0 {
		return
	}
	nLvl := int32(len(s.bucketNext))
	lvl := s.minPend
	if s.dirtyBlocks > 0 && s.minBlockLvl < lvl {
		lvl = s.minBlockLvl
	}
	for ; lvl < nLvl; lvl++ {
		if s.pending == 0 && s.dirtyBlocks == 0 {
			break
		}
		base := s.bucketOff[lvl]
		if end := s.bucketNext[lvl]; end > base {
			s.pending -= end - base
			for i := base; i < end; i++ {
				id := s.bucketDat[i]
				s.inQueue[id] = false
				if v := s.eval(id); v != s.Val[id] {
					s.drive(id, v)
				}
			}
			s.bucketNext[lvl] = base
		}
		for _, bi := range s.blockAtLvl[lvl] {
			if s.blockDirty[bi] {
				s.blockDirty[bi] = false
				s.dirtyBlocks--
				s.blocks[bi].Eval(s)
			}
		}
	}
	s.minPend = nLvl
}

// Edge applies one rising clock edge: every DFF captures its D planes
// (or its reset value while resetting, with forced lanes pinned), blocks
// commit state, and injected pulses expire.
func (s *Sim) Edge() {
	for i, id := range s.dffs {
		var next W
		if s.resetting {
			next = Splat(s.dffReset[i])
		} else {
			next = s.Val[s.dffD[i]]
		}
		if s.anyForce {
			if m := s.forceMask[id]; m != 0 {
				next.V = next.V&^m | s.forceVal[id]
				next.D |= m
			}
		}
		if next != s.Val[id] {
			s.edgeStage = append(s.edgeStage, stagedW{id, next})
		}
	}
	for _, st := range s.edgeStage {
		s.drive(st.id, st.v)
	}
	s.edgeStage = s.edgeStage[:0]
	if !s.resetting {
		for _, b := range s.blocks {
			b.Clock(s)
		}
	}
	for i := range s.blockDirty {
		if !s.blockDirty[i] {
			s.blockDirty[i] = true
			s.dirtyBlocks++
		}
	}
	s.clearPulses()
	s.Cycle++
}

// Step runs one full cycle: settle then clock edge.
func (s *Sim) Step() {
	s.Settle()
	s.Edge()
}

// Reset initializes all nets to X in every lane, resets blocks, holds
// reset for two cycles and settles, mirroring sim.Reset. Forced lanes
// come out of reset already pinned.
func (s *Sim) Reset() {
	for i := range s.Val {
		s.Val[i] = W{}
	}
	for i := range s.inQueue {
		s.inQueue[i] = false
	}
	copy(s.bucketNext, s.bucketOff[:len(s.bucketNext)])
	s.pending = 0
	s.minPend = 0
	s.pulsed = s.pulsed[:0]
	for _, b := range s.blocks {
		b.Reset(s)
	}
	for i := range s.N.Gates {
		id := netlist.GateID(i)
		k := s.N.Gates[i].Kind
		if !k.IsSeq() && k.NumInputs() > 0 && !s.inQueue[id] {
			s.inQueue[id] = true
			l := s.levels[id]
			s.bucketDat[s.bucketNext[l]] = id
			s.bucketNext[l]++
			s.pending++
		}
		switch k {
		case netlist.Const0:
			s.Val[id] = Splat(logic.Zero)
		case netlist.Const1:
			s.Val[id] = Splat(logic.One)
		}
	}
	for i := range s.blockDirty {
		if !s.blockDirty[i] {
			s.blockDirty[i] = true
			s.dirtyBlocks++
		}
	}
	s.resetting = true
	s.Step()
	s.Step()
	s.resetting = false
	s.Settle()
	s.Cycle = 0
}

// ForceLane ties gate id's output to v in lane l — a per-lane stuck-at
// fault, the lane-local equivalent of rewriting the gate to a constant.
// Forces must be configured before Reset (they take effect through the
// evaluation path). Inputs and constants are not fault sites, matching
// the scalar campaign's site validation.
func (s *Sim) ForceLane(id netlist.GateID, l int, v logic.V) error {
	if int(id) < 0 || int(id) >= len(s.N.Gates) {
		return fmt.Errorf("bitsim: gate %d out of range", id)
	}
	switch s.N.Gates[id].Kind {
	case netlist.Input, netlist.Const0, netlist.Const1:
		return fmt.Errorf("bitsim: gate %d (%s) is not a fault site", id, s.N.Gates[id].Kind)
	}
	if v == logic.X {
		return fmt.Errorf("bitsim: cannot force gate %d to X", id)
	}
	bit := uint64(1) << uint(l)
	s.forceMask[id] |= bit
	if v == logic.One {
		s.forceVal[id] |= bit
	} else {
		s.forceVal[id] &^= bit
	}
	s.anyForce = true
	return nil
}

// ForceDffLane overrides flip-flop id's state in lane l (a transient SEU
// strike) and schedules downstream recomputation.
func (s *Sim) ForceDffLane(id netlist.GateID, l int, v logic.V) {
	if !s.N.Gates[id].Kind.IsSeq() {
		panic("bitsim: ForceDffLane on non-DFF") // panic-ok: ForceDffLane on a non-DFF is a harness coding error
	}
	s.drive(id, s.Val[id].SetLane(l, v))
}

// InjectPulseLane models a single-event transient on combinational gate
// id in lane l: the settled lane output is inverted in place (X is
// driven to One) and the glitch propagates on the next Settle. The pulse
// expires at the next Edge, which re-evaluates the gate from its inputs
// after the flip-flops have sampled — the exact semantics of
// sim.InjectPulse, restricted to one lane.
func (s *Sim) InjectPulseLane(id netlist.GateID, l int) (logic.V, error) {
	if int(id) < 0 || int(id) >= len(s.N.Gates) {
		return logic.X, fmt.Errorf("bitsim: gate %d out of range", id)
	}
	k := s.N.Gates[id].Kind
	if k.IsSeq() || k.NumInputs() == 0 {
		return logic.X, fmt.Errorf("bitsim: gate %d (%s) is not a combinational SET site", id, k)
	}
	flip := logic.One
	if s.Val[id].Lane(l) == logic.One {
		flip = logic.Zero
	}
	s.drive(id, s.Val[id].SetLane(l, flip))
	s.pulsed = append(s.pulsed, id)
	return flip, nil
}

// clearPulses re-evaluates every pulsed gate from its current inputs,
// healing all struck lanes at once.
func (s *Sim) clearPulses() {
	for _, id := range s.pulsed {
		if v := s.eval(id); v != s.Val[id] {
			s.drive(id, v)
		}
	}
	s.pulsed = s.pulsed[:0]
}

// ReadBusLane assembles a scalar three-valued word from lane l of up to
// 16 nets.
func (s *Sim) ReadBusLane(bus []netlist.GateID, l int) logic.Word {
	var w logic.Word
	for i, id := range bus {
		w = w.SetBit(uint(i), s.Val[id].Lane(l))
	}
	return w
}

// DffSnapshotLane captures lane l of every flip-flop in DffIDs order,
// directly comparable with sim.DffSnapshot of a scalar run.
func (s *Sim) DffSnapshotLane(l int, dst []logic.V) []logic.V {
	if len(dst) != len(s.dffs) {
		dst = make([]logic.V, len(s.dffs))
	}
	for i, id := range s.dffs {
		dst[i] = s.Val[id].Lane(l)
	}
	return dst
}

// DffDSnapshotPlanes captures the D-input planes of every flip-flop
// (what each would latch at the next Edge), reusing dst. The SET
// classifier compares snapshots before and after a strike settles to
// find the lanes whose glitch reached a latch point.
func (s *Sim) DffDSnapshotPlanes(dst []W) []W {
	if len(dst) != len(s.dffs) {
		dst = make([]W, len(s.dffs))
	}
	for i := range s.dffs {
		dst[i] = s.Val[s.dffD[i]]
	}
	return dst
}
