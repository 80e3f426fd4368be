// Package symexec implements the paper's Algorithm 1: input-independent
// gate activity analysis. It simulates the gate-level core with every
// input held at X, branches the execution tree whenever an unknown value
// reaches a control decision (a conditional jump with unknown flags, or
// an interrupt-take decision with unknown request lines), and applies the
// conservative state-merging approximation at branch sites so the
// exploration terminates for arbitrarily complex or infinite control
// structures.
//
// The result is, for every gate, whether any execution of the program -
// under any input - could toggle it, and the constant output value of the
// gates that can never toggle. Those are exactly the gates the cutting
// stage removes.
package symexec

import (
	"context"
	"fmt"

	"bespoke/internal/asm"
	"bespoke/internal/cpu"
	"bespoke/internal/logic"
	"bespoke/internal/msp430"
	"bespoke/internal/netlist"
	"bespoke/internal/sim"
)

// Options tunes the analysis.
type Options struct {
	// MaxCycles bounds total simulated cycles across all branches.
	// 0 means the default (20M).
	MaxCycles uint64

	// MergeThreshold is how many distinct unknown-valued (forking)
	// decision states a branch site may accumulate before the
	// conservative state-merging approximation kicks in there. Covered
	// re-encounters always kill the path. 1 merges at the first
	// re-encounter (the paper's formulation); the default 64 explores
	// small input-dependent structures exactly before widening.
	// Decisions on concrete values never trigger merging - concrete
	// loops always run exactly (input-independent repeats still kill
	// the path).
	MergeThreshold int

	// RecordDomains additionally collects, for every architectural
	// register bus, the set of three-valued values the bus held in any
	// settled cycle of any explored path (Result.BusDomains). The formal
	// equivalence engine uses these as reachable-state invariants; they
	// are off by default because the bookkeeping costs a few percent of
	// analysis throughput.
	RecordDomains bool
}

// MaxDomainWords caps the cube set recorded per bus. A bus that exceeds
// the cap is marked Exceeded and treated as unconstrained downstream,
// which is always sound.
const MaxDomainWords = 1024

// BusDomain is the recorded value set of one architectural bus: every
// three-valued word (X bits allowed via the Mask) the bus was observed to
// hold in a settled cycle. Because the analysis over-approximates
// reachable states, the union of these cubes over-approximates the bus's
// reachable values — any property proved under "bus matches some cube"
// holds in every real execution.
type BusDomain struct {
	// Name identifies the bus ("r0".."r15", "state", "ir", "ie", "ifg").
	Name string
	// Bits are the flip-flop nets of the bus, LSB first.
	Bits []netlist.GateID
	// Words are the observed cubes (deduplicated, insertion order).
	Words []logic.Word
	// Exceeded reports that recording hit MaxDomainWords and stopped;
	// the set is incomplete and must be treated as unconstrained.
	Exceeded bool
}

// LimitError is the analysis watchdog's verdict: the exploration was
// aborted by a resource limit (cycle budget, context deadline, or
// cancellation) before it could prove anything. It carries the partial
// progress made so callers can diagnose whether the budget was merely too
// small or the program genuinely diverges.
type LimitError struct {
	// Reason is the limit that fired: "cycle budget exhausted",
	// "deadline exceeded" or "cancelled".
	Reason string
	// MaxCycles is the configured budget (0 when a context limit fired).
	MaxCycles uint64
	// Cycles, Paths, Sites and Merges are the progress at abort time:
	// simulated cycles, execution-tree branches finished or started,
	// distinct branch sites encountered, and conservative state merges.
	Cycles uint64
	Paths  int
	Sites  int
	Merges int
	// Pending is the number of unexplored worlds left on the stack.
	Pending int
	// Err is the underlying cause (a context error), if any.
	Err error
}

func (e *LimitError) Error() string {
	s := fmt.Sprintf("symexec: %s after %d cycles (%d paths, %d branch sites, %d merges, %d worlds pending)",
		e.Reason, e.Cycles, e.Paths, e.Sites, e.Merges, e.Pending)
	if e.MaxCycles > 0 {
		s += fmt.Sprintf("; budget %d cycles", e.MaxCycles)
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the context error so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) work through the watchdog.
func (e *LimitError) Unwrap() error { return e.Err }

// Result is the outcome of gate activity analysis.
type Result struct {
	// Toggled[g] reports whether gate g can toggle in some execution.
	Toggled []bool
	// ConstVal[g] is the constant output value of untoggled gates.
	ConstVal []logic.V
	// Paths is the number of execution-tree branches explored.
	Paths int
	// Merges counts conservative state merges.
	Merges int
	// Cycles is the total number of simulated cycles.
	Cycles uint64
	// BusDomains holds the per-bus reachable value sets when
	// Options.RecordDomains was set; nil otherwise.
	BusDomains []BusDomain
}

// Merge folds another program's analysis into r under the paper's
// Section 3.5 union rule for a multi-program design: a gate is kept
// (Toggled) if either program toggles it, or if both hold it untoggled
// but at different constants — static per program, not across them.
// ConstVal keeps r's values, the statistics add up and the recorded bus
// domains are unioned.
func (r *Result) Merge(o *Result) {
	for g := range r.Toggled {
		if o.Toggled[g] || (!r.Toggled[g] && r.ConstVal[g] != o.ConstVal[g]) {
			r.Toggled[g] = true
		}
	}
	r.Paths += o.Paths
	r.Cycles += o.Cycles
	r.Merges += o.Merges
	r.BusDomains = mergeDomains(r.BusDomains, o.BusDomains)
}

// Missing lists, in gate order, the gates an update's analysis toggles
// that the design cut from r removed. It is the paper's Section 3.5
// in-field update test: the bespoke design runs the update correctly iff
// nothing is missing.
func (r *Result) Missing(update *Result) []netlist.GateID {
	var out []netlist.GateID
	for g, t := range update.Toggled {
		if t && !r.Toggled[g] {
			out = append(out, netlist.GateID(g))
		}
	}
	return out
}

// UntoggledCount returns the number of real cells that can never toggle.
func (r *Result) UntoggledCount(n *netlist.Netlist) int {
	c := 0
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		if !r.Toggled[i] {
			c++
		}
	}
	return c
}

// snapshot is one captured machine state (flip-flops plus data RAM).
type snapshot struct {
	dffs []logic.V
	ram  *sim.RAMState
}

func (a *snapshot) covers(b *snapshot) bool {
	for i := range a.dffs {
		if !logic.Covers(a.dffs[i], b.dffs[i]) {
			return false
		}
	}
	return a.ram.Covers(b.ram)
}

func (a *snapshot) equal(b *snapshot) bool {
	return a.covers(b) && b.covers(a)
}

func (a *snapshot) merge(b *snapshot) *snapshot {
	out := &snapshot{dffs: make([]logic.V, len(a.dffs)), ram: a.ram.Merge(b.ram)}
	for i := range a.dffs {
		out.dffs[i] = logic.Merge(a.dffs[i], b.dffs[i])
	}
	return out
}

// forcing is a flip-flop override applied when a branch world resumes.
type forcing struct {
	net netlist.GateID
	val logic.V
}

// world is one unexplored execution point. resume marks worlds created at
// a decision point whose choice is already made: they take the pending
// clock edge before the site logic runs again.
type world struct {
	snap   *snapshot
	force  []forcing
	resume bool
}

// site tracks merge bookkeeping for one branch location.
type site struct {
	seen         []*snapshot // forking-decision states observed here
	lastConcrete *snapshot
	merged       *snapshot // conservative superstate, once widening began
}

// analyzer runs the exploration.
type analyzer struct {
	ctx  context.Context
	core *cpu.Core
	s    *sim.Sim
	opts Options

	pcD    []netlist.GateID // D nets of the PC flip-flops
	stack  []world
	sites  map[uint32]*site
	cycles uint64
	paths  int
	merges int

	// free is the snapshot free-list. Site bookkeeping captures a state
	// on every decision and most of those die immediately (covered,
	// repeated, or absorbed by a merge); recycling their buffers removes
	// the dominant allocation of the exploration. Only exclusively-owned
	// snapshots are recycled — world bases are shared between forked
	// worlds and stay garbage-collected.
	free []*snapshot

	// domains accumulates bus value sets when opts.RecordDomains is set.
	domains []*domainAcc
}

// domainAcc collects one bus's observed cubes with O(1) dedup.
type domainAcc struct {
	name     string
	bits     []netlist.GateID
	words    []logic.Word
	seen     map[uint32]struct{}
	exceeded bool
}

func (d *domainAcc) record(w logic.Word) {
	if d.exceeded {
		return
	}
	key := uint32(w.Val) | uint32(w.Mask)<<16
	if _, ok := d.seen[key]; ok {
		return
	}
	if len(d.words) >= MaxDomainWords {
		d.exceeded = true
		d.words = nil
		d.seen = nil
		return
	}
	d.seen[key] = struct{}{}
	d.words = append(d.words, w)
}

// recordDomains samples every tracked bus in the settled frame.
func (a *analyzer) recordDomains() {
	for _, d := range a.domains {
		d.record(a.s.ReadBus(d.bits))
	}
}

// Analyze runs input-independent gate activity analysis of prog on a
// freshly built core and returns the per-gate activity verdicts. A
// program image reaching outside ROM is an error. The context bounds the
// exploration: cancellation or a deadline aborts the analysis with a
// *LimitError carrying partial-progress diagnostics.
func Analyze(ctx context.Context, prog *asm.Program, opts Options) (*Result, *cpu.Core, error) {
	core := cpu.Build()
	if err := core.LoadProgram(prog.Bytes, prog.Origin); err != nil {
		return nil, nil, err
	}
	res, err := AnalyzeOn(ctx, core, opts)
	return res, core, err
}

// AnalyzeOn runs the analysis on an existing core whose ROM is already
// loaded. The core's netlist is not modified.
func AnalyzeOn(ctx context.Context, core *cpu.Core, opts Options) (*Result, error) {
	a, err := newAnalyzer(ctx, core, opts)
	if err != nil {
		return nil, err
	}
	s := a.s
	for len(a.stack) > 0 {
		if err := a.checkLimits(); err != nil {
			return nil, err
		}
		w := a.stack[len(a.stack)-1]
		a.stack = a.stack[:len(a.stack)-1]
		a.paths++
		if err := a.runWorld(w); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Toggled:  append([]bool(nil), s.Active...),
		ConstVal: make([]logic.V, len(s.Val)),
		Paths:    a.paths,
		Merges:   a.merges,
		Cycles:   a.cycles,
	}
	for i, v := range s.Val {
		if !s.Active[i] {
			res.ConstVal[i] = v
		}
	}
	for _, d := range a.domains {
		res.BusDomains = append(res.BusDomains, BusDomain{
			Name: d.name, Bits: d.bits, Words: d.words, Exceeded: d.exceeded,
		})
	}
	return res, nil
}

// newAnalyzer builds the exploration state for a loaded core: a fresh
// simulator, Algorithm 1's reset-to-X initialization, and the initial
// world on the stack.
func newAnalyzer(ctx context.Context, core *cpu.Core, opts Options) (*analyzer, error) {
	if opts.MaxCycles == 0 {
		opts.MaxCycles = 20_000_000
	}
	if opts.MergeThreshold == 0 {
		opts.MergeThreshold = 64
	}
	s, err := core.NewSim()
	if err != nil {
		return nil, err
	}
	a := &analyzer{
		ctx:   ctx,
		core:  core,
		s:     s,
		opts:  opts,
		sites: map[uint32]*site{},
	}
	if opts.RecordDomains {
		add := func(name string, bits []netlist.GateID) {
			a.domains = append(a.domains, &domainAcc{
				name: name,
				bits: append([]netlist.GateID(nil), bits...),
				seen: map[uint32]struct{}{},
			})
		}
		for i := range core.Regs {
			add(fmt.Sprintf("r%d", i), core.Regs[i])
		}
		add("state", core.State)
		add("ir", core.IRReg)
		add("ie", core.IEReg)
		add("ifg", core.IFReg)
		for _, mb := range core.Micro {
			add(mb.Name, mb.Bits)
		}
	}
	for _, bit := range core.PC() {
		// On a bespoke (cut) core some PC bits are constants (bit 0 is
		// never set); their next value is themselves.
		if core.N.Gates[bit].Kind == netlist.Dff {
			a.pcD = append(a.pcD, core.N.Gates[bit].In[0])
		} else {
			a.pcD = append(a.pcD, bit)
		}
	}

	// Algorithm 1 lines 2-8: initialize everything to X, load the
	// binary (already in ROM), propagate reset, drive all inputs X,
	// and mark all gates untoggled.
	s.Reset()
	for i := range core.IRQ {
		s.Drive(core.IRQ[i], logic.X)
	}
	s.DriveBus(core.P1In, logic.XWord)
	s.Settle()
	s.ResetActivity()
	// Advance through the reset-vector state to the first fetch. This
	// happens with activity tracking live, so flip-flops that leave
	// their reset value here (FSM state, PC) are recorded as toggled and
	// the bespoke design keeps its reset sequence intact.
	s.Step()
	s.Settle()

	a.stack = append(a.stack, world{snap: a.capture()})
	return a, nil
}

// capture snapshots the machine into a recycled snapshot when the
// free-list has one. The ROM needs no snapshot: its contents never
// change.
func (a *analyzer) capture() *snapshot {
	var sn *snapshot
	if n := len(a.free); n > 0 {
		sn = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		sn = &snapshot{}
	}
	sn.dffs = a.s.DffSnapshotInto(sn.dffs)
	sn.ram = a.core.RAM.Snapshot(sn.ram)
	return sn
}

// recycle returns an exclusively-owned snapshot's buffers to the
// free-list. Callers must guarantee no live reference remains.
func (a *analyzer) recycle(sn *snapshot) {
	if sn != nil {
		a.free = append(a.free, sn)
	}
}

func (a *analyzer) restore(sn *snapshot) {
	a.s.RestoreDffs(sn.dffs)
	a.core.RAM.Restore(sn.ram)
	a.s.Settle()
}

// val reads a settled net value.
func (a *analyzer) val(id netlist.GateID) logic.V { return a.s.Val[id] }

// readConcrete reads a bus that must be fully known.
func (a *analyzer) readConcrete(bus []netlist.GateID, what string) (uint16, error) {
	w := a.s.ReadBus(bus)
	if !w.Known() {
		return 0, fmt.Errorf("symexec: %s is partially unknown: %v", what, w)
	}
	return w.Val, nil
}

// runWorld resumes one execution point and simulates until the path ends
// (program halt, covered state, or exact repeat).
func (a *analyzer) runWorld(w world) error {
	a.restore(w.snap)
	for _, f := range w.force {
		a.s.ForceDff(f.net, f.val)
	}
	a.s.Settle()
	skipSite := w.resume // decision just resolved: take the edge
	for {
		if a.cycles >= a.opts.MaxCycles {
			return a.limitErr("cycle budget exhausted; program may not terminate", a.opts.MaxCycles, nil)
		}
		// The context is polled every ctxCheckMask+1 cycles so the hot
		// loop stays branch-cheap while cancellation and deadlines still
		// land within microseconds of wall-clock time.
		if a.cycles&ctxCheckMask == 0 {
			if err := a.checkLimits(); err != nil {
				return err
			}
		}
		a.cycles++
		if len(a.domains) > 0 {
			a.recordDomains()
		}
		if !skipSite {
			done, forked, err := a.atDecision()
			if err != nil {
				return err
			}
			if done || forked {
				return nil
			}
		}
		skipSite = false
		// Check that control stays concrete, then clock. A partially
		// unknown next PC with few unknown bits gets the Algorithm 1
		// treatment: enumerate every consistent candidate and fork
		// (possible_PC_next_vals); this covers indirect control flow
		// through merged state, e.g. an RTOS popping a widened return
		// address. Fully data-dependent targets stay an error.
		if pcNext := a.s.ReadBus(a.pcD); !pcNext.Known() {
			const maxUnknownBits = 4
			if nx := popcount(pcNext.Mask); nx <= maxUnknownBits {
				if len(a.domains) > 0 {
					a.recordDomains() // widening may have changed the frame
				}
				a.s.Edge()
				a.s.Settle()
				base := a.capture()
				pcBits := a.core.PC()
				for v := 0; v < 1<<nx; v++ {
					var fs []forcing
					bit := 0
					for i := 0; i < 16; i++ {
						if pcNext.Mask>>uint(i)&1 == 1 {
							fs = append(fs, forcing{pcBits[i], logic.FromBool(v>>uint(bit)&1 == 1)})
							bit++
						}
					}
					a.stack = append(a.stack, world{snap: base, force: fs})
				}
				return nil
			}
			return fmt.Errorf("symexec: unknown value reached the PC (pc=%v state=%v ir=%v next=%v): indirect control flow on input-dependent data",
				a.s.ReadBus(a.core.PC()), a.s.ReadBus(a.core.State), a.s.ReadBus(a.core.IRReg), pcNext)
		}
		if len(a.domains) > 0 {
			a.recordDomains() // widening may have changed the frame
		}
		a.s.Edge()
		a.s.Settle()
	}
}

// atDecision inspects the settled machine. It ends the path on program
// halt, and at branch decisions performs the cover/merge bookkeeping and
// forks the execution tree when the decision depends on unknown values.
// It returns done=true when the current path is finished and forked=true
// when successor worlds were pushed.
func (a *analyzer) atDecision() (done, forked bool, err error) {
	st := a.s.ReadBus(a.core.State)
	if !st.Known() {
		return false, false, fmt.Errorf("symexec: FSM state is unknown (state=%v pc=%v ir=%v cpuen=%v)",
			st, a.s.ReadBus(a.core.PC()), a.s.ReadBus(a.core.IRReg), a.s.Val[a.core.CPUEn])
	}
	switch uint64(st.Val) {
	case cpu.StateFETCH:
		return a.atFetch()
	case cpu.StateEXEC:
		return a.atExec()
	}
	return false, false, nil
}

// atFetch handles halt detection and interrupt forking.
func (a *analyzer) atFetch() (done, forked bool, err error) {
	pc, err := a.readConcrete(a.core.PC(), "pc at fetch")
	if err != nil {
		return false, false, err
	}
	take := a.val(a.core.IrqTake)

	// Halt convention: an unconditional self-jump with no interrupt
	// that could ever fire.
	if a.core.HaltsAt(pc) && take == logic.Zero {
		return true, false, nil
	}

	if take == logic.Zero {
		return false, false, nil
	}

	// Pending status per line: IFG & IE (bit known 0 if either known 0).
	pendBit := func(i int) logic.V {
		ie := a.s.ReadBus(a.core.IEReg)
		return logic.And(a.s.Val[a.core.IFReg[i]], ie.Bit(uint(i)))
	}
	// The decision forks unless the take and the winning line are both
	// concrete.
	ambiguous := func() bool {
		if a.val(a.core.IrqTake) != logic.One {
			return true
		}
		top := -1
		for i := 3; i >= 0; i-- {
			switch pendBit(i) {
			case logic.One:
				if top == -1 {
					top = i
				}
			case logic.X:
				return true // could outrank or be the only pending line
			}
			if top >= 0 {
				break
			}
		}
		return false
	}

	// An interrupt is possible. This is a branch site: apply the
	// cover/merge discipline, then fork over the consistent outcomes.
	key := uint32(pc) | 1<<16
	killed, err := a.visitSite(key, ambiguous())
	if err != nil || killed {
		return killed, false, err
	}
	if !ambiguous() {
		return false, false, nil // concrete interrupt entry: proceed inline
	}

	take = a.val(a.core.IrqTake) // may have widened
	base := a.capture()
	var worlds []world

	if take != logic.One {
		// World: no interrupt now. Force every unknown pending IFG bit
		// to 0 so the take decision resolves to 0.
		var fs []forcing
		for i := 0; i < 4; i++ {
			if pendBit(i) == logic.X {
				fs = append(fs, forcing{a.core.IFReg[i], logic.Zero})
			}
		}
		worlds = append(worlds, world{snap: base, force: fs, resume: true})
	}
	// Worlds: take interrupt i, for every i that could be the winner.
	for i := 3; i >= 0; i-- {
		p := pendBit(i)
		if p == logic.Zero {
			continue
		}
		var fs []forcing
		ok := true
		// Line i pends; all higher lines must not.
		if p == logic.X {
			fs = append(fs, forcing{a.core.IFReg[i], logic.One})
		}
		for j := i + 1; j < 4; j++ {
			switch pendBit(j) {
			case logic.One:
				ok = false // a higher line definitely wins
			case logic.X:
				fs = append(fs, forcing{a.core.IFReg[j], logic.Zero})
			}
		}
		if !ok {
			continue
		}
		worlds = append(worlds, world{snap: base, force: fs, resume: true})
		if p == logic.One {
			break // lines below cannot win
		}
	}
	a.stack = append(a.stack, worlds...)
	return false, true, nil
}

// atExec handles conditional-jump branch sites.
func (a *analyzer) atExec() (done, forked bool, err error) {
	irWord, err := a.readConcrete(a.core.IRReg, "instruction register")
	if err != nil {
		return false, false, err
	}
	in, _, derr := msp430.Decode(func(i int) uint16 {
		if i > 0 {
			return 0
		}
		return irWord
	})
	if derr != nil || !in.Op.IsJump() {
		return false, false, nil
	}

	pc, err := a.readConcrete(a.core.PC(), "pc at jump")
	if err != nil {
		return false, false, err
	}

	// Which flags does this condition read?
	sr := a.core.SR()
	var need []netlist.GateID
	switch in.Op {
	case msp430.JNE, msp430.JEQ:
		need = []netlist.GateID{sr[1]}
	case msp430.JNC, msp430.JC:
		need = []netlist.GateID{sr[0]}
	case msp430.JN:
		need = []netlist.GateID{sr[2]}
	case msp430.JGE, msp430.JL:
		need = []netlist.GateID{sr[2], sr[8]}
	}
	unknownFlags := func() []netlist.GateID {
		var u []netlist.GateID
		for _, f := range need {
			if a.val(f) == logic.X {
				u = append(u, f)
			}
		}
		return u
	}

	killed, err := a.visitSite(uint32(pc), len(unknownFlags()) > 0)
	if err != nil || killed {
		return killed, false, err
	}
	// Widening may have made more flags unknown: recompute.
	unknown := unknownFlags()
	if len(unknown) == 0 {
		return false, false, nil
	}
	// Fork over all assignments of the unknown flags (at most 4).
	base := a.capture()
	n := 1 << len(unknown)
	for v := 0; v < n; v++ {
		fs := make([]forcing, len(unknown))
		for i, f := range unknown {
			fs[i] = forcing{f, logic.FromBool(v>>i&1 == 1)}
		}
		a.stack = append(a.stack, world{snap: base, force: fs, resume: true})
	}
	return false, true, nil
}

// visitSite applies the termination discipline at a branch site.
//
// Covered states (subsumed by the site's conservative superstate) and
// exact repeats kill the path. A site that keeps making unknown-valued
// decisions past the merge threshold starts widening: its superstate
// absorbs each new state and simulation continues from the widened state
// (Algorithm 1's conservative approximation), which bounds exploration
// for input-dependent loops. Concrete decisions never widen, so bounded
// concrete loops execute exactly.
func (a *analyzer) visitSite(key uint32, forking bool) (killed bool, err error) {
	cur := a.capture()
	st := a.sites[key]
	if st == nil {
		st = &site{}
		a.sites[key] = st
	}
	if st.merged != nil {
		if st.merged.covers(cur) {
			a.recycle(cur)
			return true, nil
		}
		a.merges++
		old := st.merged
		st.merged = old.merge(cur)
		a.recycle(old)
		a.recycle(cur)
		a.restore(st.merged)
		return false, nil
	}
	if !forking {
		if st.lastConcrete != nil && st.lastConcrete.equal(cur) {
			a.recycle(cur)
			return true, nil // input-independent cycle
		}
		a.recycle(st.lastConcrete)
		st.lastConcrete = cur
		return false, nil
	}
	// Kill the path when any previously explored decision state covers
	// this one: X-simulation over-approximates data and all control Xs
	// fork, so the covering state's exploration subsumes this path.
	for _, s := range st.seen {
		if s.covers(cur) {
			a.recycle(cur)
			return true, nil
		}
	}
	if len(st.seen) >= a.opts.MergeThreshold {
		a.merges++
		m := cur
		for _, s := range st.seen {
			nm := m.merge(s)
			a.recycle(m)
			a.recycle(s)
			m = nm
		}
		st.merged = m
		st.seen = nil
		a.restore(st.merged)
		return false, nil
	}
	st.seen = append(st.seen, cur)
	return false, nil
}

// ctxCheckMask throttles context polling in the simulation hot loop:
// the context is checked every 1024 simulated cycles.
const ctxCheckMask = 1023

// checkLimits polls the analysis context and converts cancellation or an
// expired deadline into a *LimitError with partial-progress diagnostics.
func (a *analyzer) checkLimits() error {
	if err := a.ctx.Err(); err != nil {
		reason := "cancelled"
		if err == context.DeadlineExceeded {
			reason = "deadline exceeded"
		}
		return a.limitErr(reason, 0, err)
	}
	return nil
}

// limitErr snapshots the exploration progress into a watchdog error.
func (a *analyzer) limitErr(reason string, budget uint64, cause error) error {
	return &LimitError{
		Reason:    reason,
		MaxCycles: budget,
		Cycles:    a.cycles,
		Paths:     a.paths,
		Sites:     len(a.sites),
		Merges:    a.merges,
		Pending:   len(a.stack),
		Err:       cause,
	}
}

// popcount counts set bits in a 16-bit mask.
func popcount(m uint16) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}
