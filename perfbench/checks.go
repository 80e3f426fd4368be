package main

import (
	"context"
	"fmt"

	"bespoke/internal/asm"
	"bespoke/internal/core"
	"bespoke/internal/faultinject"
	"bespoke/internal/power"
	"bespoke/internal/sta"
)

// timingSummary holds sta.Report's exported fields.
type timingSummary struct {
	CriticalPs, ClockPs, SlackFrac, Vmin, FMaxHz float64
}

func summarizeTiming(t sta.Report) timingSummary {
	return timingSummary{t.CriticalPs, t.ClockPs, t.SlackFrac, t.Vmin, t.FMaxHz}
}

// proofSummary holds the tallies of one program's formal gate.
type proofSummary struct {
	ProvedStructural, ProvedSAT, ProvedInduct, Assumed, Refuted int
	SATQueries                                                  int64
	Equivalent                                                  bool
	Obligations, MiterAssumed, MiterInvariants                  int
	InductK, Invariants, CoreClaims, Candidates, Dropped        int
	InductQueries                                               int64
	BudgetExhausted                                             bool
}

// resultSummary is every number a single-program core.Result reports:
// gates, area, power, Vmin, the analysis and cut/synth counts, and the
// proof tallies. Two summaries compare with ==, exactly.
type resultSummary struct {
	BaseGates, BaseDffs, BespokeGates, BespokeDffs int
	BaseTiming, BespokeTiming                      timingSummary
	BasePower, BespokePower, VminPower             power.Report
	Cut                                            [2]int // cut.Stats
	Synth                                          [4]int // synth.Stats
	Paths, Merges                                  int
	Cycles                                         uint64
	GateSavings, AreaSavings                       float64
	PowerSavings, PowerSavingsVmin                 float64
	Proofs                                         int
	Proof                                          proofSummary
}

func summarize(res *core.Result) resultSummary {
	s := resultSummary{
		BaseGates: res.Baseline.Gates, BaseDffs: res.Baseline.Dffs,
		BespokeGates: res.Bespoke.Gates, BespokeDffs: res.Bespoke.Dffs,
		BaseTiming: summarizeTiming(res.Baseline.Timing), BespokeTiming: summarizeTiming(res.Bespoke.Timing),
		BasePower: res.Baseline.Power, BespokePower: res.Bespoke.Power, VminPower: res.BespokeAtVmin,
		Cut:         [2]int{res.CutStats.Cut, res.CutStats.Kept},
		Synth:       [4]int{res.SynthStats.Folded, res.SynthStats.Collapsed, res.SynthStats.Dead, res.SynthStats.Passes},
		GateSavings: res.GateSavings, AreaSavings: res.AreaSavings,
		PowerSavings: res.PowerSavings, PowerSavingsVmin: res.PowerSavingsVmin,
		Proofs: len(res.Proofs),
	}
	if a := res.Analysis; a != nil {
		s.Paths, s.Merges, s.Cycles = a.Paths, a.Merges, a.Cycles
	}
	if len(res.Proofs) > 0 {
		p := res.Proofs[0]
		ps := &s.Proof
		if c := p.Claims; c != nil {
			ps.ProvedStructural, ps.ProvedSAT, ps.ProvedInduct = c.ProvedStructural, c.ProvedSAT, c.ProvedInduct
			ps.Assumed, ps.Refuted, ps.SATQueries = c.Assumed, c.Refuted, c.SATQueries
		}
		if m := p.Miter; m != nil {
			ps.Equivalent, ps.Obligations = m.Equivalent, m.Obligations
			ps.MiterAssumed, ps.MiterInvariants = m.AssumedClaims, m.Invariants
		}
		if in := p.Induct; in != nil {
			ps.InductK, ps.Invariants, ps.CoreClaims = in.K, in.Invariants, in.Core
			ps.Candidates, ps.Dropped, ps.InductQueries = in.Candidates, in.Dropped, in.Queries
			ps.BudgetExhausted = in.BudgetExhausted
		}
	}
	return s
}

// sameAs rejects an operation whose numbers differ from the same
// operation's in the first pass of the run: a count that does not repeat,
// or a traced replay that does not reproduce core.Tailor's Result.
func sameAs(first, now op) error {
	if now.summary != first.summary {
		return fmt.Errorf("%s differs from the first pass:\n  first %s\n  now   %s", now.name, first.summary, now.summary)
	}
	return nil
}

// checkOutputs runs the bespoke design on the seeded workload, on a clone
// so the design under test keeps its memories, and compares its output
// stream with the ISA golden model's.
func checkOutputs(ctx context.Context, res *core.Result, prog *asm.Program, w *core.Workload, golden []uint16) error {
	tr, err := core.RunWorkload(ctx, res.BespokeCore.Clone(), prog, w)
	if err != nil {
		return fmt.Errorf("bespoke run: %w", err)
	}
	if len(tr.Out) != len(golden) {
		return fmt.Errorf("bespoke core wrote %d outputs, the ISA model %d", len(tr.Out), len(golden))
	}
	for i := range golden {
		if tr.Out[i] != golden[i] {
			return fmt.Errorf("output %d: bespoke core %#04x, ISA model %#04x", i, tr.Out[i], golden[i])
		}
	}
	return nil
}

// checkProof accepts a proved flow only with every claim either proved or
// assumed (none refuted) and an equivalent miter.
func checkProof(res *core.Result) error {
	if len(res.Proofs) != 1 {
		return fmt.Errorf("flow returned %d proof results, want 1", len(res.Proofs))
	}
	p := res.Proofs[0]
	if p.Claims == nil || p.Miter == nil || p.Induct == nil {
		return fmt.Errorf("proof result lacks its claims, miter or induction report")
	}
	if p.Claims.Refuted != 0 {
		return fmt.Errorf("%d claims refuted", p.Claims.Refuted)
	}
	if !p.Miter.Equivalent {
		return fmt.Errorf("miter not equivalent (first mismatch at %s)", p.Miter.Mismatch)
	}
	return nil
}

// checkClaimed accepts a claimed-constant stuck-at campaign only if no
// injection diverged: tying a never-toggling gate to the value it already
// holds cannot change the machine.
func checkClaimed(rep *faultinject.Report) error {
	if d := rep.Divergent(); d != 0 {
		return fmt.Errorf("%d of %d claimed-constant injections diverged", d, rep.Injected)
	}
	if rep.Injected == 0 {
		return fmt.Errorf("claimed-constant campaign injected nothing")
	}
	return nil
}
