// Package sim is a levelized, event-driven, three-valued gate-level
// simulator. It is the single execution engine behind everything in the
// flow: concrete input-based simulation (power activity, verification)
// and the X-based input-independent gate activity analysis both run here;
// the only difference is whether primary inputs are driven with concrete
// values or with X.
//
// A cycle has two phases: Settle propagates pending changes through the
// combinational network in topological-level order (each gate evaluates
// at most once per settle), then Edge clocks every flip-flop and
// behavioral block. Memory arrays and other macros are modeled as Blocks:
// combinational read paths evaluated in level order like gates, with
// state committed at the clock edge.
//
// The hot structures are flat: fanout and the per-level event queue are
// CSR-style arrays (one offset table plus one data array each), gate
// evaluation is a single lookup into a precomputed 3-valued truth table
// indexed by kind and input values, and toggle counting is opt-in so the
// symbolic analysis does not pay for power instrumentation.
package sim

import (
	"fmt"

	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// Block is a behavioral macro (RAM, ROM) attached to the netlist. Its
// Outputs must be netlist Input-kind gates reserved for the block; its
// Inputs are arbitrary nets it combinationally depends on.
type Block interface {
	// Inputs returns the nets whose values the block reads during Eval
	// and Clock.
	Inputs() []netlist.GateID
	// Outputs returns the Input-kind gates the block drives.
	Outputs() []netlist.GateID
	// Eval recomputes outputs from current input values; called during
	// settle whenever an input changed. Use Sim.Val and Sim.drive.
	Eval(s *Sim)
	// Clock commits sequential state from settled input values.
	Clock(s *Sim)
	// Reset restores power-on state.
	Reset(s *Sim)
	// Snapshot captures the block's architectural state.
	Snapshot() BlockState
	// Restore reinstates a previously captured state.
	Restore(BlockState)
}

// BlockState is an opaque, immutable snapshot of a block's state that the
// symbolic engine can compare and merge conservatively.
type BlockState interface {
	// Covers reports whether this state is at least as conservative as o.
	Covers(o BlockState) bool
	// Merge returns the most conservative state covering both.
	Merge(o BlockState) BlockState
}

// SnapshotterInto is an optional Block extension: SnapshotInto behaves
// like Snapshot but may reuse the storage of a previously captured state
// that the caller guarantees is no longer referenced. The symbolic engine
// uses it to recycle snapshot buffers and cut GC churn.
type SnapshotterInto interface {
	SnapshotInto(recycled BlockState) BlockState
}

// evalStride is the row width of the kind-indexed truth table. An index
// packs three 3-valued inputs as a | b<<2 | sel<<4 (each value is 0, 1 or
// 2, so two bits suffice per input).
const evalStride = 64

// evalTab holds, for every gate kind, the precomputed 3-valued output for
// every combination of input values. Rows for non-combinational kinds
// (Input, Dff) are never indexed: only gates with at least one input pin
// enter the event queue, and sequential gates are filtered from fanout.
var evalTab [netlist.NumKinds * evalStride]logic.V

func init() {
	vals := [...]logic.V{logic.Zero, logic.One, logic.X}
	for k := 0; k < netlist.NumKinds; k++ {
		kind := netlist.Kind(k)
		if kind == netlist.Input || kind.IsSeq() {
			continue
		}
		for _, a := range vals {
			for _, b := range vals {
				for _, sel := range vals {
					evalTab[k*evalStride+int(a)|int(b)<<2|int(sel)<<4] = kind.Eval(a, b, sel)
				}
			}
		}
	}
}

// Sim simulates one netlist plus its blocks.
type Sim struct {
	N *netlist.Netlist
	// Val is the current value of every net.
	Val []logic.V
	// Active records, per gate, whether the gate has possibly toggled
	// since the last ResetActivity: its value changed or was X.
	Active []bool
	// ToggleCount counts concrete 0<->1 output transitions per gate.
	// Counting is off by default; power-instrumented runs opt in with
	// ResetToggleCounts, so the symbolic analysis does not pay for
	// bookkeeping it never reads.
	ToggleCount []uint64
	// Tag optionally groups gates (e.g. by module); when set, any value
	// change on a gate marks TagTouched[Tag[gate]]. The observer owns
	// clearing TagTouched (typically once per cycle). Used by the
	// power-gating oracle to find cycles where a whole module is idle.
	Tag        []int32
	TagTouched []bool
	// Cycle is the number of clock edges since Reset.
	Cycle uint64

	// countToggles gates ToggleCount bookkeeping (see ToggleCount).
	countToggles bool

	blocks []Block
	// blockSubIdx/blockSubDat are the CSR form of the net -> subscribed
	// blocks relation: blocks listening on net g are
	// blockSubDat[blockSubIdx[g]:blockSubIdx[g+1]].
	blockSubIdx []int32
	blockSubDat []int32

	levels []int32

	// fanIdx/fanDat are the CSR form of combinational fanout: the
	// non-sequential readers of net g are fanDat[fanIdx[g]:fanIdx[g+1]].
	// DFF D-pins are filtered out at build time (they are sampled at the
	// clock edge, never propagated during settle). Each entry carries the
	// reader's level so the enqueue path avoids a second random load.
	fanIdx []int32
	fanDat []netlist.Reader

	// ops packs each gate's flattened input pins and truth-table row
	// offset into one 16-byte record so evaluation touches a single
	// cache line per gate. Unused pins point at gate 0, whose value is a
	// don't-care for the truth-table row of any kind with fewer inputs.
	ops []gateOp

	// The pending event queue: one fixed CSR segment per level, sized to
	// the number of combinational gates at that level (each gate queues
	// at most once, guarded by inQueue). bucketNext[l] is the write
	// cursor, starting at bucketOff[l]; the level is empty when they are
	// equal.
	bucketOff  []int32
	bucketNext []int32
	bucketDat  []netlist.GateID
	inQueue    []bool
	blockDirty []bool
	blockAtLvl [][]int32 // blocks to evaluate at a given level

	// pending counts queued gates, dirtyBlocks counts blocks awaiting
	// Eval, and minPend lower-bounds the lowest non-empty queue level;
	// together they let Settle start late and stop as soon as the
	// network is quiescent (the common case: Settle on an already
	// settled network returns immediately).
	pending     int32
	dirtyBlocks int32
	minPend     int32
	minBlockLvl int32

	dffs     []netlist.GateID
	dffD     []int32   // D input net per flip-flop, in dffs order
	dffReset []logic.V // reset value per flip-flop, in dffs order

	// pulsed lists combinational gates carrying an injected
	// single-event-transient (see InjectPulse) until the next clock edge
	// re-evaluates them from their inputs.
	pulsed []netlist.GateID

	edgeStage []staged

	resetting bool
}

// New builds a simulator for n with the given behavioral blocks from the
// netlist's compiled schedule (netlist.Compile): levels over the
// combinational network including block read paths, CSR fanout and the
// per-level event queue. It returns an error on combinational cycles.
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
		Val:         make([]logic.V, nG),
		Active:      make([]bool, nG),
		ToggleCount: make([]uint64, nG),
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
	}
	for i := range s.Val {
		s.Val[i] = logic.X
	}
	// Flat evaluation operands: unused pins read gate 0 (don't-care).
	for i := range n.Gates {
		g := &n.Gates[i]
		s.ops[i].off = int32(g.Kind) * evalStride
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

// drive sets the value of net id, recording activity and scheduling
// fanout. It is the only mutation point for net values.
func (s *Sim) drive(id netlist.GateID, v logic.V) {
	old := s.Val[id]
	if v == old {
		return
	}
	s.Val[id] = v
	if s.countToggles && old != logic.X && v != logic.X {
		s.ToggleCount[id]++
	}
	s.Active[id] = true
	if s.Tag != nil {
		s.TagTouched[s.Tag[id]] = true
	}
	// Schedule combinational fanout (CSR walk) and notify blocks.
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

// Drive sets a primary input to v (testbench use).
func (s *Sim) Drive(id netlist.GateID, v logic.V) {
	if s.N.Gates[id].Kind != netlist.Input {
		panic("sim: Drive on non-input gate") // panic-ok: Drive on a non-input is a harness coding error
	}
	s.drive(id, v)
}

// DriveBus sets a bus of primary inputs from a three-valued word.
func (s *Sim) DriveBus(bus []netlist.GateID, w logic.Word) {
	for i, id := range bus {
		s.Drive(id, w.Bit(uint(i)))
	}
}

// Settle propagates all pending changes until the combinational network
// is stable. Levels are processed in ascending order; each gate and each
// block evaluates at most once. Fanout is strictly forward (a gate's
// readers sit at higher levels), so each level's queue segment is frozen
// by the time the loop reaches it.
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
		// Fanout is strictly forward, so this level's segment is frozen:
		// nothing evaluated here can enqueue at this level or below.
		base := s.bucketOff[lvl]
		if end := s.bucketNext[lvl]; end > base {
			s.pending -= end - base
			for i := base; i < end; i++ {
				id := s.bucketDat[i]
				s.inQueue[id] = false
				op := &s.ops[id]
				idx := op.off | int32(s.Val[op.in0]) |
					int32(s.Val[op.in1])<<2 | int32(s.Val[op.in2])<<4
				// Hoisted no-change test: most re-evaluated gates keep
				// their value, and skipping the drive call here is the
				// single biggest win in the settle loop.
				if v := evalTab[idx]; v != s.Val[id] {
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

// BlockDrive is used by Block implementations to drive their output gates
// during Eval. The no-change test keeps it inlinable at call sites.
func (s *Sim) BlockDrive(id netlist.GateID, v logic.V) {
	if v != s.Val[id] {
		s.drive(id, v)
	}
}

// Edge applies one rising clock edge: every DFF captures its D input
// (or its reset value while resetting) and blocks commit state. Changed
// DFF outputs are scheduled for the next Settle.
func (s *Sim) Edge() {
	// Sample all D inputs first (DFF semantics: old values everywhere).
	for i, id := range s.dffs {
		var next logic.V
		if s.resetting {
			next = s.dffReset[i]
		} else {
			next = s.Val[s.dffD[i]]
		}
		if next != s.Val[id] {
			// Defer the actual update so DFF-to-DFF paths are race-free.
			s.edgeStage = append(s.edgeStage, staged{id, next})
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
	// Committed block state can change read data: re-evaluate all blocks
	// on the next settle.
	for i := range s.blockDirty {
		if !s.blockDirty[i] {
			s.blockDirty[i] = true
			s.dirtyBlocks++
		}
	}
	// Injected transients expire at the edge: state sampled above kept the
	// corrupted value, but the struck gates themselves recover to the value
	// their inputs dictate (the pulse is shorter than a clock period).
	s.clearPulses()
	s.Cycle++
}

// InjectPulse models a single-event transient on combinational gate id:
// its settled output is inverted in place (an X output is driven to One)
// and the glitch propagates through the fanout on the next Settle. The
// pulse lasts until the end of the current cycle: Edge re-evaluates the
// gate from its inputs after the flip-flops have sampled, so state
// captured during the strike cycle keeps the corrupted value while the
// gate itself recovers. The forced value is returned. Sequential gates,
// inputs and constants are not SET sites and are rejected.
func (s *Sim) InjectPulse(id netlist.GateID) (logic.V, error) {
	if int(id) < 0 || int(id) >= len(s.N.Gates) {
		return logic.X, fmt.Errorf("sim: gate %d out of range", id)
	}
	k := s.N.Gates[id].Kind
	if k.IsSeq() || k.NumInputs() == 0 {
		return logic.X, fmt.Errorf("sim: gate %d (%s) is not a combinational SET site", id, k)
	}
	flip := logic.One
	if s.Val[id] == logic.One {
		flip = logic.Zero
	}
	s.drive(id, flip)
	s.pulsed = append(s.pulsed, id)
	return flip, nil
}

// clearPulses re-evaluates every pulsed gate from its current inputs and
// forgets the pulses. Without this the event-driven kernel would never
// heal a struck gate: a gate re-evaluates only when an input changes, and
// the injection changed its output, not its inputs.
func (s *Sim) clearPulses() {
	for _, id := range s.pulsed {
		op := &s.ops[id]
		idx := op.off | int32(s.Val[op.in0]) |
			int32(s.Val[op.in1])<<2 | int32(s.Val[op.in2])<<4
		if v := evalTab[idx]; v != s.Val[id] {
			s.drive(id, v)
		}
	}
	s.pulsed = s.pulsed[:0]
}

type staged struct {
	id netlist.GateID
	v  logic.V
}

// gateOp is a gate's evaluation record: three operand nets (unused pins
// read gate 0) and the gate's truth-table row offset.
type gateOp struct {
	in0, in1, in2, off int32
}

// Step runs one full cycle: settle then clock edge.
func (s *Sim) Step() {
	s.Settle()
	s.Edge()
}

// Reset initializes all nets to X, resets blocks, then holds reset for
// two cycles so every flip-flop assumes its reset value, and settles.
// This mirrors Algorithm 1 lines 2-4.
func (s *Sim) Reset() {
	for i := range s.Val {
		s.Val[i] = logic.X
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
	// All gates need evaluation: schedule everything once.
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
			s.Val[id] = logic.Zero
		case netlist.Const1:
			s.Val[id] = logic.One
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

// ResetActivity clears the possibly-toggled flags, then re-marks every
// gate whose current value is X (an X-valued gate can always toggle).
// Call after Reset, per Algorithm 1 line 8.
func (s *Sim) ResetActivity() {
	for i := range s.Active {
		s.Active[i] = s.Val[i] == logic.X
	}
}

// ResetToggleCounts zeroes the concrete toggle counters and enables
// counting: calling it is the power paths' explicit opt-in.
func (s *Sim) ResetToggleCounts() {
	s.countToggles = true
	for i := range s.ToggleCount {
		s.ToggleCount[i] = 0
	}
}

// ForceDff overrides the state of flip-flop id to v (symbolic-execution
// forking) and schedules downstream recomputation.
func (s *Sim) ForceDff(id netlist.GateID, v logic.V) {
	if !s.N.Gates[id].Kind.IsSeq() {
		panic("sim: ForceDff on non-DFF") // panic-ok: ForceDff on a non-DFF is a harness coding error
	}
	s.drive(id, v)
}

// ReadBus assembles a three-valued word from up to 16 nets.
func (s *Sim) ReadBus(bus []netlist.GateID) logic.Word {
	var w logic.Word
	for i, id := range bus {
		w = w.SetBit(uint(i), s.Val[id])
	}
	return w
}

// DffSnapshot captures the values of all flip-flops in DffIDs order.
func (s *Sim) DffSnapshot() []logic.V {
	return s.DffSnapshotInto(nil)
}

// DffSnapshotInto captures flip-flop values into dst when it has the
// right length, avoiding an allocation; otherwise a fresh slice is made.
func (s *Sim) DffSnapshotInto(dst []logic.V) []logic.V {
	if len(dst) != len(s.dffs) {
		dst = make([]logic.V, len(s.dffs))
	}
	for i, id := range s.dffs {
		dst[i] = s.Val[id]
	}
	return dst
}

// DffDSnapshotInto captures the value on every flip-flop's D input (what
// each flip-flop would latch at the next Edge) in DffIDs order, reusing
// dst when it has the right length. The fault-injection engine compares
// snapshots taken before and after a transient settles to decide whether
// a glitch reached any latch point.
func (s *Sim) DffDSnapshotInto(dst []logic.V) []logic.V {
	if len(dst) != len(s.dffs) {
		dst = make([]logic.V, len(s.dffs))
	}
	for i := range s.dffs {
		dst[i] = s.Val[s.dffD[i]]
	}
	return dst
}

// RestoreDffs sets all flip-flop values from a snapshot and schedules
// recomputation of downstream logic.
func (s *Sim) RestoreDffs(vals []logic.V) {
	if len(vals) != len(s.dffs) {
		panic("sim: snapshot length mismatch") // panic-ok: snapshot from a different netlist is a harness coding error
	}
	for i, id := range s.dffs {
		if vals[i] != s.Val[id] {
			s.drive(id, vals[i])
		}
	}
}

// Dffs exposes the flip-flop ID ordering used by DffSnapshot.
func (s *Sim) Dffs() []netlist.GateID { return s.dffs }

// Blocks returns the attached behavioral blocks.
func (s *Sim) Blocks() []Block { return s.blocks }
