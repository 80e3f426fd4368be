// Package core is the bespoke-processor flow itself - the paper's primary
// contribution as a library. Tailor takes a general purpose gate-level
// microcontroller and an application binary and produces a bespoke design
// containing only the gates the application can ever exercise:
//
//	analysis := input-independent gate activity analysis (symexec)
//	cut      := remove untoggleable gates, stitch constants (cut)
//	resynth  := fold constants, drop floating logic (synth)
//	prove    := optional formal gate: SAT-prove the constants and the
//	            base-vs-bespoke equivalence (equiv)
//	P&R      := place, extract wire parasitics (layout)
//	signoff  := timing/Vmin (sta) and activity-based power (power)
//
// TailorMulti supports multiple target applications (the union of their
// exercised gates), TailorCoarse is the module-level baseline the paper's
// Figure 12 compares against, and Prove runs the flow up to and including
// the formal gate, without placement or signoff.
package core

import (
	"context"
	"errors"
	"fmt"

	"bespoke/internal/asm"
	"bespoke/internal/cells"
	"bespoke/internal/cpu"
	"bespoke/internal/cut"
	"bespoke/internal/equiv"
	"bespoke/internal/layout"
	"bespoke/internal/logic"
	"bespoke/internal/msp430"
	"bespoke/internal/netlist"
	"bespoke/internal/parallel"
	"bespoke/internal/power"
	"bespoke/internal/sta"
	"bespoke/internal/symexec"
	"bespoke/internal/synth"
)

// P1Step drives the P1 input port to Value at cycle At.
type P1Step struct {
	At    uint64
	Value uint16
}

// IRQStep drives external interrupt line Line to Level at cycle At.
type IRQStep struct {
	At    uint64
	Line  int
	Level bool
}

// Workload is one representative concrete execution used for dynamic
// power measurement and input-based verification.
type Workload struct {
	// RAM preloads words (byte address -> value) before release.
	RAM map[uint16]uint16
	// P1 and IRQ drive input pins at given cycles.
	P1  []P1Step
	IRQ []IRQStep
	// MaxCycles bounds the run (0: DefaultMaxCycles).
	MaxCycles uint64
}

// DefaultMaxCycles bounds a workload run that sets no MaxCycles.
const DefaultMaxCycles = 2_000_000

// Budget returns the workload's cycle bound; a nil workload gets the
// default.
func (w *Workload) Budget() uint64 {
	if w == nil || w.MaxCycles == 0 {
		return DefaultMaxCycles
	}
	return w.MaxCycles
}

// Inputs is what a workload drives: the P1 port, the interrupt lines and,
// before release, the data RAM (addr is a byte address). The gate-level
// harness, the ISA model and each lane of the bit-parallel harness
// implement it.
type Inputs interface {
	SetP1In(v uint16)
	SetIRQ(line int, level bool)
	SetRAMWord(addr, v uint16)
}

// Stimulus replays one workload's input schedule on one run.
type Stimulus struct {
	w       *Workload
	in      Inputs
	p1, irq int
}

// Start preloads the workload's RAM words into in and returns the
// stimulus that drives its P1 and IRQ schedules there. A nil workload
// drives nothing.
func (w *Workload) Start(in Inputs) *Stimulus {
	if w != nil {
		for addr, v := range w.RAM {
			in.SetRAMWord(addr, v)
		}
	}
	return &Stimulus{w: w, in: in}
}

// Apply drives every scheduled step due by cycle (At <= cycle) that has
// not been driven yet: the P1 steps, then the IRQ steps, each schedule
// in slice order up to its first step not yet due.
func (s *Stimulus) Apply(cycle uint64) {
	w := s.w
	if w == nil {
		return
	}
	for ; s.p1 < len(w.P1) && w.P1[s.p1].At <= cycle; s.p1++ {
		s.in.SetP1In(w.P1[s.p1].Value)
	}
	for ; s.irq < len(w.IRQ) && w.IRQ[s.irq].At <= cycle; s.irq++ {
		s.in.SetIRQ(w.IRQ[s.irq].Line, w.IRQ[s.irq].Level)
	}
}

// Options tunes the flow.
type Options struct {
	// Sym tunes the activity analysis.
	Sym symexec.Options
	// Prove enables the formal gate: every cut constant must be proved
	// implied by the proof environment (or recorded as assumed), and the
	// bespoke netlist must be miter-equivalent to the baseline, for every
	// target program. A refuted constant aborts the flow with a
	// *equiv.ProofError inside the "prove" stage. Setting Prove forces
	// Sym.RecordDomains on so the prover sees the reachable bus values.
	Prove bool
	// ProveOpts tunes the proof engine when Prove is set.
	ProveOpts equiv.Options
	// Induct enables the inductive invariant engine inside the formal
	// gate (implies Prove): candidate invariants are inferred by abstract
	// interpretation and discharged by k-induction, per-claim proofs and
	// the miter consume the proved invariants INSTEAD of the recorded
	// dynamic bus domains, and Assumed claims that are themselves members
	// of the inductive core are upgraded to proved. Nothing inferred is
	// ever assumed: an invariant is used only if its induction step was
	// UNSAT.
	Induct bool
	// InductK caps the induction ladder depth when Induct is set
	// (0: engine default).
	InductK int
}

// Metrics are the signoff numbers for one design point.
type Metrics struct {
	Gates  int
	Dffs   int
	Timing sta.Report
	Power  power.Report
}

// Result is the outcome of tailoring.
type Result struct {
	Baseline Metrics
	Bespoke  Metrics
	// BespokeAtVmin is the bespoke design re-analyzed at the reduced
	// supply that its exposed timing slack allows.
	BespokeAtVmin power.Report

	Analysis   *symexec.Result
	CutStats   cut.Stats
	SynthStats synth.Stats
	// Proofs holds the per-program formal verification outcomes when
	// Options.Prove was set (nil otherwise).
	Proofs []ProofResult

	// Headline ratios (fractions, 0..1).
	GateSavings      float64
	AreaSavings      float64
	PowerSavings     float64
	PowerSavingsVmin float64

	// BespokeCore is the tailored design, still executable.
	BespokeCore *cpu.Core
	// BaselineCore is the untouched general purpose design.
	BaselineCore *cpu.Core
}

// RunTrace is the observable outcome of a workload run.
type RunTrace struct {
	Out     []uint16
	Cycles  uint64
	Toggles []uint64
}

// ctxCheckMask throttles context polling in the concrete-simulation hot
// loop: the context is checked every 1024 simulated cycles.
const ctxCheckMask = 1023

// RunWorkload executes prog's workload concretely on core and collects
// toggle counts. The run ends at the testbench halt convention. The
// context bounds the run: cancellation or an expired deadline aborts it
// (polled every 1024 cycles), and a panic inside the simulation is
// recovered into a *FlowError rather than crashing the caller.
func RunWorkload(ctx context.Context, core *cpu.Core, prog *asm.Program, w *Workload) (*RunTrace, error) {
	return RunWorkloadHooked(ctx, core, prog, w, nil)
}

// RunWorkloadHooked is RunWorkload with a per-cycle observer: hook is
// called once per cycle after the workload's inputs are driven and before
// the clock edge. The fault injection engine uses it to flip state bits
// mid-run; a nil hook is a plain run.
func RunWorkloadHooked(ctx context.Context, core *cpu.Core, prog *asm.Program, w *Workload, hook func(h *cpu.Harness)) (tr *RunTrace, err error) {
	stage := "workload"
	defer guard(&stage, &err)
	if prog == nil {
		return nil, stageErr(stage, netlist.None, fmt.Errorf("core: nil program"))
	}
	h, err := cpu.NewHarnessOn(core, prog.Bytes, prog.Origin)
	if err != nil {
		return nil, stageErr(stage, netlist.None, err)
	}
	max := w.Budget()
	stim := w.Start(h)
	h.Sim.ResetToggleCounts()
	for {
		if h.Cycles&ctxCheckMask == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, stageErr(stage, netlist.None,
					fmt.Errorf("core: workload aborted at cycle %d: %w", h.Cycles, cerr))
			}
		}
		stim.Apply(h.Cycles)
		if h.Cycles >= max {
			pc, err := readPC(h)
			if err != nil {
				return nil, stageErr(stage, netlist.None, err)
			}
			return nil, stageErr(stage, netlist.None,
				fmt.Errorf("core: workload did not halt in %d cycles (pc=%#04x)", max, pc))
		}
		if hook != nil {
			hook(h)
		}
		if h.State() == cpu.StateFETCH {
			pc, err := readPC(h)
			if err != nil {
				return nil, stageErr(stage, netlist.None, err)
			}
			// The testbench halt convention: an unconditional self-jump
			// with interrupts unable to fire.
			if core.HaltsAt(pc) && h.Sim.Val[core.IrqTake] == logic.Zero {
				break
			}
		}
		h.StepCycle()
	}
	return &RunTrace{Out: h.Out, Cycles: h.Cycles, Toggles: append([]uint64(nil), h.Sim.ToggleCount...)}, nil
}

// readPC reads the program counter. A concrete run whose PC holds unknown
// bits (a program that branches on uninitialized inputs) has lost its
// control flow: that is an error naming the cycle.
func readPC(h *cpu.Harness) (uint16, error) {
	pc, err := h.Reg(int(msp430.PC))
	if err != nil {
		return 0, fmt.Errorf("core: cycle %d: %w", h.Cycles, err)
	}
	return pc, nil
}

// blockPaths builds the STA macro arcs for the core's memories.
func blockPaths(core *cpu.Core) []sta.BlockPath {
	const memAccessPs = 1200
	return []sta.BlockPath{
		{Ins: core.ROM.Inputs(), Outs: core.ROM.Outputs(), DelayPs: memAccessPs},
		{Ins: core.RAM.Inputs(), Outs: core.RAM.Outputs(), DelayPs: memAccessPs},
	}
}

// measure runs signoff for one design point on its placement.
func measure(ctx context.Context, core *cpu.Core, place *layout.Result, prog *asm.Program, w *Workload, lib *cells.Library, clockPs float64) (Metrics, *RunTrace, error) {
	timing, err := sta.Analyze(core.N, lib, place, clockPs, blockPaths(core))
	if err != nil {
		return Metrics{}, nil, err
	}
	trace, err := RunWorkload(ctx, core, prog, w)
	if err != nil {
		return Metrics{}, nil, err
	}
	pw := power.Analyze(core.N, lib, place, trace.Toggles, trace.Cycles, clockHz, lib.VNominal)
	st := core.N.Stats()
	return Metrics{Gates: st.Gates, Dffs: st.Dffs, Timing: timing, Power: pw}, trace, nil
}

// clockHz is the operating frequency of the paper's evaluation (100 MHz).
const clockHz = 100e6

// Tailor produces a bespoke design for one application. The context
// bounds the whole flow: cancellation or a deadline aborts the analysis
// and the workload runs at the next hot-loop check, surfacing as a
// *FlowError wrapping the context error.
func Tailor(ctx context.Context, prog *asm.Program, w *Workload, opts Options) (*Result, error) {
	return tailor(ctx, []*asm.Program{prog}, []*Workload{w}, opts, false)
}

// TailorMulti produces a bespoke design supporting all given applications
// (the union of their exercisable gates, per the paper's Section 3.5).
func TailorMulti(ctx context.Context, progs []*asm.Program, ws []*Workload, opts Options) (*Result, error) {
	return tailor(ctx, progs, ws, opts, false)
}

// TailorCoarse removes only wholly-unusable modules (the Xtensa-like
// module-level customization of Figure 12), guided by the same gate
// activity analysis.
func TailorCoarse(ctx context.Context, prog *asm.Program, w *Workload, opts Options) (*Result, error) {
	return tailor(ctx, []*asm.Program{prog}, []*Workload{w}, opts, true)
}

// Prove runs the flow's formal gate on its own, exactly as Tailor runs it
// with Options.Prove set: the union analysis with recorded bus domains,
// the cut and re-synthesis, the lint gate, then per program the claim
// proofs and the base-vs-bespoke miter (Options.Induct first adds the
// k-induction strengthening and its CompareDomains tripwire). It places
// nothing and runs no signoff. Every error is a *FlowError, as from
// Tailor.
func Prove(ctx context.Context, progs []*asm.Program, opts Options) (proofs []ProofResult, err error) {
	stage := "init"
	defer guard(&stage, &err)
	opts.Prove = true
	union, cores, err := analyze(ctx, progs, &opts, &stage)
	if err != nil {
		return nil, err
	}
	d, err := derive(ctx, cores, union, opts, false, &stage)
	if err != nil {
		return nil, err
	}
	return d.proofs, nil
}

func tailor(ctx context.Context, progs []*asm.Program, ws []*Workload, opts Options, coarse bool) (res *Result, err error) {
	stage := "init"
	defer guard(&stage, &err)
	union, cores, err := analyze(ctx, progs, &opts, &stage)
	if err != nil {
		return nil, err
	}
	baseline := cores[0]
	lib := cells.TSMC65()

	// Baseline signoff. The clock is set so the baseline just meets
	// timing, like a design synthesized for its target frequency. Each
	// design is placed once: placement is deterministic and nothing
	// edits either netlist after it.
	stage = "baseline-signoff"
	basePlace := layout.Place(baseline.N, lib)
	t, err := sta.Analyze(baseline.N, lib, basePlace, 0, blockPaths(baseline))
	if err != nil {
		return nil, stageErr(stage, netlist.None, err)
	}
	clockPs := t.CriticalPs * 1.02
	baseMet, _, err := measure(ctx, baseline, basePlace, progs[0], wsAt(ws, 0), lib, clockPs)
	if err != nil {
		return nil, stageErr(stage, netlist.None, fmt.Errorf("baseline workload: %w", err))
	}

	d, err := derive(ctx, cores, union, opts, coarse, &stage)
	if err != nil {
		return nil, err
	}
	bespoke := d.core

	stage = "bespoke-signoff"
	besPlace := layout.Place(bespoke.N, lib)
	besMet, besTrace, err := measure(ctx, bespoke, besPlace, progs[0], wsAt(ws, 0), lib, clockPs)
	if err != nil {
		return nil, stageErr(stage, netlist.None, fmt.Errorf("bespoke workload: %w", err))
	}
	// Multi-program designs must run every application.
	stage = "multi-check"
	for i := 1; i < len(progs); i++ {
		if _, err := RunWorkload(ctx, bespoke, progs[i], wsAt(ws, i)); err != nil {
			return nil, stageErr(stage, netlist.None, fmt.Errorf("bespoke workload %d: %w", i, err))
		}
	}

	// Exploit exposed slack: rerun power at Vmin.
	stage = "vmin"
	pwVmin := power.Analyze(bespoke.N, lib, besPlace, besTrace.Toggles, besTrace.Cycles, clockHz, besMet.Timing.Vmin)

	res = &Result{
		Baseline:      baseMet,
		Bespoke:       besMet,
		BespokeAtVmin: pwVmin,
		Analysis:      union,
		CutStats:      d.cutStats,
		SynthStats:    d.synthStats,
		Proofs:        d.proofs,
		BespokeCore:   bespoke,
		BaselineCore:  baseline,
	}
	res.GateSavings = 1 - float64(besMet.Gates)/float64(baseMet.Gates)
	res.AreaSavings = 1 - besMet.Power.AreaUm2/baseMet.Power.AreaUm2
	res.PowerSavings = 1 - besMet.Power.TotalUW/baseMet.Power.TotalUW
	res.PowerSavingsVmin = 1 - pwVmin.TotalUW/baseMet.Power.TotalUW
	return res, nil
}

// analyze validates the programs, normalizes opts (Induct implies Prove,
// and Prove records the bus domains the prover needs) and runs the union
// analysis. It also returns the core each program was analyzed on, in
// program order: the flow signs off, cuts and proves these cores
// (program 0's is the baseline), so every target is elaborated once.
// *stage tracks the running stage for the caller's panic guard.
func analyze(ctx context.Context, progs []*asm.Program, opts *Options, stage *string) (*symexec.Result, []*cpu.Core, error) {
	if len(progs) == 0 {
		return nil, nil, stageErr(*stage, netlist.None, fmt.Errorf("core: no programs"))
	}
	for i, p := range progs {
		if p == nil {
			return nil, nil, stageErr(*stage, netlist.None, fmt.Errorf("core: program %d is nil", i))
		}
	}
	if opts.Induct {
		opts.Prove = true
	}
	if opts.Prove {
		opts.Sym.RecordDomains = true
	}

	*stage = "analysis"
	union, cores, err := unionAnalysis(ctx, progs, opts.Sym)
	if err != nil {
		return nil, nil, err
	}
	if testHookAnalysis != nil {
		testHookAnalysis(union)
	}
	return union, cores, nil
}

// derived is the bespoke design the flow derives from the baseline,
// before placement and signoff.
type derived struct {
	core       *cpu.Core
	cutStats   cut.Stats
	synthStats synth.Stats
	// proofs holds the formal gate's per-program outcomes (nil unless
	// Options.Prove).
	proofs []ProofResult
}

// derive cuts and re-synthesizes a clone of the baseline (cores[0]) per
// the union analysis (widened to whole modules when coarse), then holds
// it to the lint gate and, with opts.Prove, to the formal gate against
// every program's core. *stage tracks the running stage for the caller's
// panic guard.
func derive(ctx context.Context, cores []*cpu.Core, union *symexec.Result, opts Options, coarse bool, stage *string) (*derived, error) {
	*stage = "cut"
	d := &derived{core: cores[0].Clone()}
	toggled := union.Toggled
	if coarse {
		toggled = coarsen(d.core.N, toggled)
	}
	var err error
	d.cutStats, d.synthStats, err = CutAndResynthesize(d.core, toggled, union.ConstVal)
	if err != nil {
		gate := netlist.None
		var ge *cut.GateError
		if errors.As(err, &ge) {
			gate = ge.Gate
		}
		return nil, stageErr(*stage, gate, err)
	}
	if testHookPostSynth != nil {
		testHookPostSynth(d.core.N)
	}

	// Static gate: no netlist leaves the flow without passing lint. The
	// dynamic signoff can only catch defects the quick workload happens
	// to toggle; the analyzers are input-independent.
	*stage = "lint"
	if err := lintGate(ctx, d.core); err != nil {
		gate := netlist.None
		var le *LintError
		if errors.As(err, &le) {
			gate = le.Gate()
		}
		return nil, stageErr(*stage, gate, err)
	}

	// Formal gate: prove the recorded constants and the equivalence of
	// the transformation before spending any signoff effort.
	if opts.Prove {
		*stage = "prove"
		d.proofs, err = proveGate(ctx, d.core, cores, union, opts)
		if err != nil {
			gate := netlist.None
			var pe *equiv.ProofError
			if errors.As(err, &pe) {
				gate = pe.Gate
			}
			return nil, stageErr(*stage, gate, err)
		}
	}
	return d, nil
}

// CutAndResynthesize is the flow's netlist transformation, applied to c in
// place: remove every gate toggled marks untoggleable and stitch its
// constant from constVal into the fanout (cut.Apply), then fold constants
// and drop floating logic with the memory-macro pins kept alive
// (synth.Optimize).
func CutAndResynthesize(c *cpu.Core, toggled []bool, constVal []logic.V) (cut.Stats, synth.Stats, error) {
	cs, err := cut.Apply(c.N, toggled, constVal)
	if err != nil {
		return cs, synth.Stats{}, err
	}
	return cs, synth.Optimize(c.N, keepAlive(c)), nil
}

// keepAlive lists the nets re-synthesis must preserve: memory macro pins.
func keepAlive(core *cpu.Core) []netlist.GateID {
	var keep []netlist.GateID
	keep = append(keep, core.ROM.Inputs()...)
	keep = append(keep, core.RAM.Inputs()...)
	return keep
}

func wsAt(ws []*Workload, i int) *Workload {
	if i < len(ws) {
		return ws[i]
	}
	return nil
}

// UnionAnalysis runs the activity analysis for every program and returns
// their union (symexec.Result.Merge: a gate survives if any program needs
// it). The per-program analyses are independent and fan out across the
// shared worker pool; the union is merged sequentially in program order,
// so the result is deterministic. Every error, a recovered panic from a
// malformed program included, is a *FlowError in the "analysis" stage.
func UnionAnalysis(ctx context.Context, progs []*asm.Program, opts symexec.Options) (*symexec.Result, error) {
	union, _, err := unionAnalysis(ctx, progs, opts)
	return union, err
}

// unionAnalysis is UnionAnalysis that also returns the core each program
// was analyzed on, in program order.
func unionAnalysis(ctx context.Context, progs []*asm.Program, opts symexec.Options) (union *symexec.Result, cores []*cpu.Core, err error) {
	stage := "analysis"
	defer guard(&stage, &err)
	if len(progs) == 0 {
		return nil, nil, stageErr(stage, netlist.None, fmt.Errorf("core: no programs"))
	}
	analyses := make([]*symexec.Result, len(progs))
	cores = make([]*cpu.Core, len(progs))
	perr := parallel.ForEach(ctx, 0, len(progs), func(i int) error {
		res, c, err := Analyze(ctx, progs[i], opts)
		if err != nil {
			return err
		}
		analyses[i], cores[i] = res, c
		return nil
	})
	if perr != nil {
		return nil, nil, stageErr(stage, netlist.None, perr)
	}
	union = analyses[0]
	for _, res := range analyses[1:] {
		union.Merge(res)
	}
	return union, cores, nil
}

// UpdateMissing is the paper's Section 3.5 in-field update test: it
// analyzes the base programs' union and the update, each under the
// analysis panic guard, and returns the gates the update can exercise
// that a design tailored to base removed (symexec.Result.Missing), in
// gate order, with the core the update was analyzed on. The update is
// supported iff nothing is missing.
func UpdateMissing(ctx context.Context, base []*asm.Program, update *asm.Program, opts symexec.Options) ([]netlist.GateID, *cpu.Core, error) {
	union, _, err := unionAnalysis(ctx, base, opts)
	if err != nil {
		return nil, nil, err
	}
	upd, c, err := Analyze(ctx, update, opts)
	if err != nil {
		return nil, nil, stageErr("analysis", netlist.None, fmt.Errorf("analyzing update: %w", err))
	}
	return union.Missing(upd), c, nil
}

// Analyze elaborates a core, loads p into its ROM and runs
// symexec.Analyze on it; it is the one place a program's analysis builds
// its core. It returns the analysis and the core it ran on. A program
// image reaching outside ROM is an error. A panic from a malformed
// program is returned as a *FlowError in the "analysis" stage, so a
// worker pool running many analyses loses one result instead of the
// process. Analysis errors, context errors included, are returned as
// symexec.Analyze returns them.
func Analyze(ctx context.Context, p *asm.Program, opts symexec.Options) (res *symexec.Result, c *cpu.Core, err error) {
	stage := "analysis"
	defer guard(&stage, &err)
	built := cpu.Build()
	if err := built.LoadProgram(p.Bytes, p.Origin); err != nil {
		return nil, nil, err
	}
	res, err = symexec.Analyze(ctx, built, opts)
	return res, built, err
}

// coarsen widens a gate-level toggled map to module granularity: a module
// keeps all its gates unless none of them can toggle (the paper's
// "coarse-grained module-level bespoke design").
func coarsen(n *netlist.Netlist, toggled []bool) []bool {
	out := make([]bool, len(toggled))
	copy(out, toggled)
	for _, gates := range n.GatesByModule() {
		any := false
		for _, g := range gates {
			if toggled[g] {
				any = true
				break
			}
		}
		if any {
			for _, g := range gates {
				out[g] = true
			}
		}
	}
	return out
}
