package main

import (
	"context"
	"fmt"
	"strings"

	"bespoke/internal/asm"
	"bespoke/internal/cells"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/cut"
	"bespoke/internal/equiv"
	"bespoke/internal/induct"
	"bespoke/internal/layout"
	"bespoke/internal/lint"
	"bespoke/internal/netlist"
	"bespoke/internal/power"
	"bespoke/internal/sta"
	"bespoke/internal/symexec"
	"bespoke/internal/synth"
)

// The replay below re-runs core.Tailor's stage order for one program
// through the layers' exported calls, so a traced pass can time each
// layer from outside the opaque core.Tailor. It mirrors internal/core's
// tailor, measure and proveGate/strengthen for a single program; the
// constants and helpers copied from there are marked. A traced pass is
// held to the numbers of the run's first untraced pass (sameAs), so a
// replay whose Result differs from core.Tailor's fails its operation
// instead of reporting numbers for a different program.

// clockHz mirrors core's evaluation frequency (100 MHz).
const clockHz = 100e6

// blockPaths mirrors core's STA macro arcs for the memories.
func blockPaths(c *cpu.Core) []sta.BlockPath {
	const memAccessPs = 1200
	return []sta.BlockPath{
		{Ins: c.ROM.Inputs(), Outs: c.ROM.Outputs(), DelayPs: memAccessPs},
		{Ins: c.RAM.Inputs(), Outs: c.RAM.Outputs(), DelayPs: memAccessPs},
	}
}

// keepAlive mirrors core's re-synthesis keep list: memory macro pins.
func keepAlive(c *cpu.Core) []netlist.GateID {
	var keep []netlist.GateID
	keep = append(keep, c.ROM.Inputs()...)
	return append(keep, c.RAM.Inputs()...)
}

// replayPlace places a design, counting the call.
func replayPlace(r *recorder, n *netlist.Netlist, lib *cells.Library) *layout.Result {
	r.add("layout.calls", 1)
	return call(r, "layout.Place", "layout.time_s", func() *layout.Result { return layout.Place(n, lib) })
}

// replayMeasure mirrors core's signoff for one design point.
func replayMeasure(ctx context.Context, r *recorder, c *cpu.Core, prog *asm.Program, w *core.Workload, lib *cells.Library, clockPs float64) (core.Metrics, *core.RunTrace, error) {
	place := replayPlace(r, c.N, lib)
	timing, err := callErr(r, "sta.Analyze", "sta.time_s", func() (sta.Report, error) {
		return sta.Analyze(c.N, lib, place, clockPs, blockPaths(c))
	})
	if err != nil {
		return core.Metrics{}, nil, err
	}
	tr, err := callErr(r, "core.RunWorkload", "sim.time_s", func() (*core.RunTrace, error) {
		return core.RunWorkload(ctx, c, prog, w)
	})
	if err != nil {
		return core.Metrics{}, nil, err
	}
	r.add("sim.runs", 1)
	r.add("sim.cycles", float64(tr.Cycles))
	pw := call(r, "power.Analyze", "power.time_s", func() power.Report {
		return power.Analyze(c.N, lib, place, tr.Toggles, tr.Cycles, clockHz, lib.VNominal)
	})
	st := c.N.Stats()
	return core.Metrics{Gates: st.Gates, Dffs: st.Dffs, Timing: timing, Power: pw}, tr, nil
}

// replayTailor is core.Tailor(ctx, prog, w, opts) for the options the
// benchmark uses (zero options, or Induct), split at the layer calls.
func replayTailor(ctx context.Context, r *recorder, prog *asm.Program, w *core.Workload, opts core.Options) (*core.Result, error) {
	lib := cells.TSMC65()
	if opts.Induct {
		opts.Prove = true
	}
	if opts.Prove {
		opts.Sym.RecordDomains = true
	}
	baseline := call(r, "cpu.Build", "cpu.build_s", cpu.Build)
	call(r, "cpu.LoadProgram", "cpu.build_s", func() struct{} {
		baseline.LoadProgram(prog.Bytes, prog.Origin)
		return struct{}{}
	})

	union, err := callErr(r, "core.UnionAnalysis", "symexec.time_s", func() (*symexec.Result, error) {
		return core.UnionAnalysis(ctx, []*asm.Program{prog}, opts.Sym)
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	r.add("symexec.cycles", float64(union.Cycles))
	r.add("symexec.paths", float64(union.Paths))
	r.add("symexec.merges", float64(union.Merges))

	place := replayPlace(r, baseline.N, lib)
	t, err := callErr(r, "sta.Analyze", "sta.time_s", func() (sta.Report, error) {
		return sta.Analyze(baseline.N, lib, place, 0, blockPaths(baseline))
	})
	if err != nil {
		return nil, fmt.Errorf("baseline-signoff: %w", err)
	}
	clockPs := t.CriticalPs * 1.02
	baseMet, _, err := replayMeasure(ctx, r, baseline, prog, w, lib, clockPs)
	if err != nil {
		return nil, fmt.Errorf("baseline-signoff: %w", err)
	}

	bespoke := call(r, "cpu.Clone", "cpu.build_s", baseline.Clone)
	cutStats, err := callErr(r, "cut.Apply", "cut.time_s", func() (cut.Stats, error) {
		return cut.Apply(bespoke.N, union.Toggled, union.ConstVal)
	})
	if err != nil {
		return nil, fmt.Errorf("cut: %w", err)
	}
	r.add("cut.cut_gates", float64(cutStats.Cut))
	synthStats := call(r, "synth.Optimize", "synth.time_s", func() synth.Stats {
		return synth.Optimize(bespoke.N, keepAlive(bespoke))
	})
	r.add("synth.folded", float64(synthStats.Folded))
	r.add("synth.dead", float64(synthStats.Dead))
	lrep, err := callErr(r, "core.LintCore", "lint.time_s", func() (*lint.Report, error) {
		return core.LintCore(ctx, bespoke, lint.Config{})
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	if bad := lrep.AtLeast(lint.Error); len(bad) > 0 {
		return nil, fmt.Errorf("lint: %d error findings, first: %s", len(bad), bad[0])
	}

	var proofs []core.ProofResult
	if opts.Prove {
		pr, err := replayProve(ctx, r, prog, union, bespoke, opts)
		if err != nil {
			return nil, fmt.Errorf("prove: %w", err)
		}
		proofs = []core.ProofResult{*pr}
	}

	besMet, besTrace, err := replayMeasure(ctx, r, bespoke, prog, w, lib, clockPs)
	if err != nil {
		return nil, fmt.Errorf("bespoke-signoff: %w", err)
	}
	place = replayPlace(r, bespoke.N, lib)
	pwVmin := call(r, "power.Analyze", "power.time_s", func() power.Report {
		return power.Analyze(bespoke.N, lib, place, besTrace.Toggles, besTrace.Cycles, clockHz, besMet.Timing.Vmin)
	})

	res := &core.Result{
		Baseline:      baseMet,
		Bespoke:       besMet,
		BespokeAtVmin: pwVmin,
		Analysis:      union,
		CutStats:      cutStats,
		SynthStats:    synthStats,
		Proofs:        proofs,
		BespokeCore:   bespoke,
		BaselineCore:  baseline,
	}
	res.GateSavings = 1 - float64(besMet.Gates)/float64(baseMet.Gates)
	res.AreaSavings = 1 - besMet.Power.AreaUm2/baseMet.Power.AreaUm2
	res.PowerSavings = 1 - besMet.Power.TotalUW/baseMet.Power.TotalUW
	res.PowerSavingsVmin = 1 - pwVmin.TotalUW/baseMet.Power.TotalUW
	return res, nil
}

// replayProve mirrors core's formal gate for one program.
func replayProve(ctx context.Context, r *recorder, prog *asm.Program, union *symexec.Result, bespoke *cpu.Core, opts core.Options) (*core.ProofResult, error) {
	base := call(r, "cpu.Build", "cpu.build_s", cpu.Build)
	call(r, "cpu.LoadProgram", "cpu.build_s", func() struct{} {
		base.LoadProgram(prog.Bytes, prog.Origin)
		return struct{}{}
	})
	env, err := callErr(r, "equiv.NewCoreEnv", "equiv.env_s", func() (*equiv.Env, error) {
		return equiv.NewCoreEnv(base, union)
	})
	if err != nil {
		return nil, err
	}
	var isum *core.InductSummary
	if opts.Induct {
		spec, err := callErr(r, "induct.NewCoreSpec", "induct.spec_s", func() (*induct.Spec, error) {
			return induct.NewCoreSpec(base, union, induct.DefaultSampleCycles)
		})
		if err != nil {
			return nil, fmt.Errorf("induct spec: %w", err)
		}
		ires, err := callErr(r, "induct.Prove", "induct.time_s", func() (*induct.Result, error) {
			return induct.Prove(ctx, spec, env.Claims, induct.Options{K: opts.InductK, QueryBudget: opts.ProveOpts.QueryBudget})
		})
		if err != nil {
			return nil, fmt.Errorf("induct: %w", err)
		}
		r.add("induct.candidates", float64(ires.Candidates))
		r.add("induct.dropped", float64(ires.Dropped))
		r.add("induct.invariants", float64(len(ires.Invariants)))
		r.add("induct.core_claims", float64(len(ires.Core)))
		r.add("induct.rounds", float64(ires.Rounds))
		r.add("induct.queries", float64(ires.Queries))
		r.add("induct.conflicts", float64(ires.Conflicts))
		r.add("induct.k", float64(ires.K))
		if ires.BudgetExhausted {
			r.add("induct.budget_exhausted", 1)
		}
		diffs := call(r, "symexec.CompareDomains", "symexec.time_s", func() []string {
			return symexec.CompareDomains(union.BusDomains, provedDomains(ires.Invariants))
		})
		if len(diffs) > 0 {
			return nil, fmt.Errorf("induct: proved invariants contradict the dynamic record (soundness bug):\n  %s",
				strings.Join(diffs, "\n  "))
		}
		env.Invariants = ires.Invariants
		env.InductCore = ires.Core
		isum = &core.InductSummary{
			K:               ires.K,
			Invariants:      len(ires.Invariants),
			Core:            len(ires.Core),
			Candidates:      ires.Candidates,
			Dropped:         ires.Dropped,
			Queries:         ires.Queries,
			BudgetExhausted: ires.BudgetExhausted,
		}
	}
	rep, err := callErr(r, "equiv.ProveClaims", "equiv.claims_s", func() (*equiv.Report, error) {
		return equiv.ProveClaims(ctx, env, opts.ProveOpts)
	})
	if err != nil {
		return nil, err
	}
	r.add("equiv.claims", float64(len(rep.Results)))
	r.add("equiv.proved_structural", float64(rep.ProvedStructural))
	r.add("equiv.proved_sat", float64(rep.ProvedSAT))
	r.add("equiv.proved_induct", float64(rep.ProvedInduct))
	r.add("equiv.assumed", float64(rep.Assumed))
	r.add("equiv.sat_queries", float64(rep.SATQueries))
	if rep.Refuted > 0 {
		return nil, fmt.Errorf("%d claims refuted", rep.Refuted)
	}
	mres, err := callErr(r, "equiv.ProveMiter", "equiv.miter_s", func() (*equiv.MiterResult, error) {
		return equiv.ProveMiter(ctx, env, bespoke.N, rep, opts.ProveOpts)
	})
	if err != nil {
		return nil, err
	}
	r.add("equiv.miter_obligations", float64(mres.Obligations))
	if !mres.Equivalent {
		return nil, fmt.Errorf("bespoke netlist is not equivalent to the baseline (first mismatch at %s)", mres.Mismatch)
	}
	if isum != nil {
		isum.Provenance = induct.BuildProvenance(env.Invariants, rep)
	}
	return &core.ProofResult{Program: 0, Claims: rep, Miter: mres, Induct: isum}, nil
}

// provedDomains mirrors core's projection of proved cube invariants onto
// symexec's bus-domain shape for the CompareDomains tripwire.
func provedDomains(invs []equiv.Invariant) []symexec.BusDomain {
	var out []symexec.BusDomain
	for i := range invs {
		iv := &invs[i]
		if !iv.IsCube() {
			continue
		}
		name := iv.Name
		if j := strings.IndexByte(name, '#'); j >= 0 {
			name = name[:j]
		}
		out = append(out, symexec.BusDomain{Name: name, Bits: iv.Bits, Words: iv.Cubes})
	}
	return out
}
