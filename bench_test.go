package bespoke

// One testing.B benchmark per table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus microbenchmarks of the
// substrates and ablations of the design choices DESIGN.md calls out.
// Domain results are attached with b.ReportMetric so a bench run doubles
// as a results table.

import (
	"context"
	"io"
	"sync"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/bitsim"
	"bespoke/internal/cells"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/cut"
	"bespoke/internal/equiv"
	"bespoke/internal/experiments"
	"bespoke/internal/faultinject"
	"bespoke/internal/induct"
	"bespoke/internal/layout"
	"bespoke/internal/netlist"
	"bespoke/internal/power"
	"bespoke/internal/symexec"
)

// --- Tables and figures -------------------------------------------------

func BenchmarkTable1_Benchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table1(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02_Profiling(b *testing.B) {
	var inter float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Profile(bench.ByName("binSearch"), 5)
		if err != nil {
			b.Fatal(err)
		}
		inter = r.Intersection
	}
	b.ReportMetric(100*inter, "%untoggled-profiled")
}

func BenchmarkFig03_DieCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig04_ScrambledIntFilt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_UsableGates(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(io.Discard, true)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			frac += r.Fraction
		}
		frac /= float64(len(rows))
	}
	b.ReportMetric(100*frac, "%usable-avg")
}

func BenchmarkFig11_Savings(b *testing.B) {
	var gate, area, power float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TailorAll(true)
		if err != nil {
			b.Fatal(err)
		}
		gate, area, power = 0, 0, 0
		for _, r := range rows {
			gate += r.GateSavings
			area += r.AreaSavings
			power += r.PowerSavings
		}
		n := float64(len(rows))
		gate, area, power = gate/n, area/n, power/n
	}
	b.ReportMetric(100*gate, "%gate-savings")
	b.ReportMetric(100*area, "%area-savings")
	b.ReportMetric(100*power, "%power-savings")
}

func BenchmarkTable2_Slack(b *testing.B) {
	var slack, vminSave float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TailorAll(true)
		if err != nil {
			b.Fatal(err)
		}
		slack, vminSave = 0, 0
		for _, r := range rows {
			slack += r.SlackFrac
			vminSave += r.TotalPowerVmin
		}
		n := float64(len(rows))
		slack, vminSave = slack/n, vminSave/n
	}
	b.ReportMetric(100*slack, "%slack-avg")
	b.ReportMetric(100*vminSave, "%power-savings-at-vmin")
}

func BenchmarkFig12_Coarse(b *testing.B) {
	var vs float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(io.Discard, true)
		if err != nil {
			b.Fatal(err)
		}
		vs = 0
		for _, r := range rows {
			vs += r.PowerVsCoarse
		}
		vs /= float64(len(rows))
	}
	b.ReportMetric(100*vs, "%power-vs-coarse")
}

func BenchmarkTable3_Verification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13_MultiProgram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4and5_Fig14_Mutants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMutants(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15_PowerGating(b *testing.B) {
	var save float64
	for i := 0; i < b.N; i++ {
		m, err := experiments.Fig15(io.Discard, true)
		if err != nil {
			b.Fatal(err)
		}
		save = 0
		for _, v := range m {
			save += v
		}
		save /= float64(len(m))
	}
	b.ReportMetric(100*save, "%oracle-gating-savings")
}

func BenchmarkSubneg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SubnegStudy(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRTOS(b *testing.B) {
	var osOnly float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRTOS(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		osOnly = rows[0].Untoggled
	}
	b.ReportMetric(100*osOnly, "%os-only-untoggled")
}

// --- Substrate microbenchmarks -------------------------------------------

// BenchmarkGateSimulation measures concrete gate-level simulation speed.
func BenchmarkGateSimulation(b *testing.B) {
	bm := bench.ByName("tea8")
	p := bm.MustProg()
	c := cpu.Build()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := core.RunWorkload(context.Background(), c, p, bm.Workload(1))
		if err != nil {
			b.Fatal(err)
		}
		cycles = tr.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles/run")
}

// BenchmarkBitParallelCampaign measures the batched fault-campaign
// path: one 64-lane simulator pass settles 63 SEU injections plus the
// golden guard lane. Workers is pinned to 1 so the committed number is
// per-core throughput.
func BenchmarkBitParallelCampaign(b *testing.B) {
	bm := bench.ByName("mult")
	p := bm.MustProg()
	c := cpu.Build()
	w := bm.Workload(1)
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := faultinject.SEUCampaign(context.Background(), c, p, w, 63,
			faultinject.Options{Workers: 1, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		rate = float64(rep.Injected) / rep.Elapsed.Seconds()
	}
	b.ReportMetric(rate, "inj/s")
}

// BenchmarkBitsimOneLane measures the batched harness at one lane: one
// op runs each Table 1 program at seed 1 on a one-lane batch, whose 63
// unused lanes the memories ignore, so they keep their lockstep fast
// paths. It is the bit-parallel engine's cost where internal/sim runs
// today (BenchmarkGateSimulation).
func BenchmarkBitsimOneLane(b *testing.B) {
	benches := bench.All()
	progs := make([]*asm.Program, len(benches))
	for i, bm := range benches {
		progs[i] = bm.MustProg()
	}
	c := cpu.Build()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles = 0
		for j, bm := range benches {
			h, err := bitsim.NewHarness(c, progs[j], 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := h.Run(context.Background(), []*core.Workload{bm.Workload(1)}, nil); err != nil {
				b.Fatal(err)
			}
			if l := h.Lane[0]; l.Status != bitsim.LaneHalted {
				b.Fatalf("%s: lane %s (%s)", bm.Name, l.Status, l.Detail)
			}
			cycles += h.Lane[0].Cycles
		}
	}
	b.ReportMetric(float64(cycles), "cycles/op")
}

// BenchmarkISASimulation measures golden-model speed for comparison.
func BenchmarkISASimulation(b *testing.B) {
	bm := bench.ByName("tea8")
	for i := 0; i < b.N; i++ {
		if _, err := bm.RunISA(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreElaboration measures netlist generation.
func BenchmarkCoreElaboration(b *testing.B) {
	var gates int
	for i := 0; i < b.N; i++ {
		gates = cpu.Build().N.CellCount()
	}
	b.ReportMetric(float64(gates), "gates")
}

// BenchmarkSymbolicAnalysis measures Algorithm 1 on a branchy benchmark.
func BenchmarkSymbolicAnalysis(b *testing.B) {
	p := bench.ByName("binSearch").MustProg()
	var cyc uint64
	for i := 0; i < b.N; i++ {
		res, _, err := core.Analyze(context.Background(), p, symexec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cyc = res.Cycles
	}
	b.ReportMetric(float64(cyc), "sym-cycles")
}

// BenchmarkCutAndResynthesis measures the netlist transformation stages.
func BenchmarkCutAndResynthesis(b *testing.B) {
	p := bench.ByName("intAVG").MustProg()
	res, c, err := core.Analyze(context.Background(), p, symexec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var kept int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n2 := c.Clone()
		if _, _, err := core.CutAndResynthesize(n2, res.Toggled, res.ConstVal); err != nil {
			b.Fatal(err)
		}
		kept = n2.N.CellCount()
	}
	b.ReportMetric(float64(kept), "kept-gates")
}

// BenchmarkPlace measures placement alone, on the base core and on
// binSearch's bespoke core (analysis, cut and re-synthesis). Each
// netlist's fanout and level tables are cached after the first call, so
// the time is Place's own.
func BenchmarkPlace(b *testing.B) {
	res, c, err := core.Analyze(context.Background(), bench.ByName("binSearch").MustProg(), symexec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := core.CutAndResynthesize(c, res.Toggled, res.ConstVal); err != nil {
		b.Fatal(err)
	}
	lib := cells.TSMC65()
	for _, d := range []struct {
		name string
		n    *netlist.Netlist
	}{{"base", cpu.Build().N}, {"bespoke", c.N}} {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			var wire float64
			for i := 0; i < b.N; i++ {
				wire = layout.Place(d.n, lib).TotalWireUm
			}
			b.ReportMetric(wire, "wire-um")
		})
	}
}

// multProof builds what the flow's proof gate starts from on mult's real
// core: the proof environment over the cut plan's claims and the
// induction spec, both from an analysis that records bus domains.
func multProof() (*equiv.Env, *induct.Spec, error) {
	p := bench.ByName("mult").MustProg()
	res, _, err := core.Analyze(context.Background(), p, symexec.Options{RecordDomains: true})
	if err != nil {
		return nil, nil, err
	}
	base := cpu.Build()
	if err := base.LoadProgram(p.Bytes, p.Origin); err != nil {
		return nil, nil, err
	}
	env, err := equiv.NewCoreEnv(base, res)
	if err != nil {
		return nil, nil, err
	}
	spec, err := induct.NewCoreSpec(base, res, induct.DefaultSampleCycles)
	if err != nil {
		return nil, nil, err
	}
	return env, spec, nil
}

// BenchmarkInduct measures the k-induction engine alone on mult's real
// core: the proof spec and the cut plan's claims are built once, as the
// flow builds them, and only induct.Prove is timed.
func BenchmarkInduct(b *testing.B) {
	env, spec, err := multProof()
	if err != nil {
		b.Fatal(err)
	}
	var ires *induct.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ires, err = induct.Prove(context.Background(), spec, env.Claims, induct.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ires.Queries), "queries")
	b.ReportMetric(float64(len(ires.Invariants)), "invariants")
}

// provedMult is mult's proof environment strengthened by its proved
// invariants and inductive core. It is built once per process: the
// induction run behind it takes longer than the claim proofs it feeds.
var provedMult struct {
	once sync.Once
	env  *equiv.Env
	err  error
}

// BenchmarkProveClaims measures the per-claim prover alone on mult's real
// core with the proved invariants in place, as the flow runs it under
// Options.Induct; only equiv.ProveClaims is timed.
func BenchmarkProveClaims(b *testing.B) {
	provedMult.once.Do(func() {
		env, spec, err := multProof()
		if err == nil {
			var ires *induct.Result
			if ires, err = induct.Prove(context.Background(), spec, env.Claims, induct.Options{}); err == nil {
				env.Invariants, env.InductCore = ires.Invariants, ires.Core
			}
		}
		provedMult.env, provedMult.err = env, err
	})
	if provedMult.err != nil {
		b.Fatal(provedMult.err)
	}
	var rep *equiv.Report
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err = equiv.ProveClaims(context.Background(), provedMult.env, equiv.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.SATQueries), "sat-queries")
	b.ReportMetric(float64(rep.Assumed), "assumed")
}

// BenchmarkTailorFlow measures the complete flow end to end.
func BenchmarkTailorFlow(b *testing.B) {
	bm := bench.ByName("div")
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := core.Tailor(context.Background(), bm.MustProg(), bm.Workload(1), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		savings = res.PowerSavings
	}
	b.ReportMetric(100*savings, "%power-savings")
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblation_MergeThreshold compares the paper's merge-at-first-
// re-encounter (threshold 1) against the default exact-unrolling window:
// aggressive merging trades untoggled-gate precision for analysis time.
func BenchmarkAblation_MergeThreshold(b *testing.B) {
	p := bench.ByName("binSearch").MustProg()
	for _, th := range []int{1, 64} {
		th := th
		name := "merge1"
		if th == 64 {
			name = "merge64"
		}
		b.Run(name, func(b *testing.B) {
			var untog float64
			for i := 0; i < b.N; i++ {
				res, c, err := core.Analyze(context.Background(), p, symexec.Options{MergeThreshold: th})
				if err != nil {
					b.Fatal(err)
				}
				untog = float64(res.UntoggledCount(c.N)) / float64(c.N.CellCount())
			}
			b.ReportMetric(100*untog, "%untoggled")
		})
	}
}

// BenchmarkAblation_NoResynthesis isolates the re-synthesis stage's
// contribution ("toggled gates left with floating outputs ... removed").
func BenchmarkAblation_NoResynthesis(b *testing.B) {
	p := bench.ByName("intAVG").MustProg()
	res, c, err := core.Analyze(context.Background(), p, symexec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, resynth bool) {
		var kept int
		for i := 0; i < b.N; i++ {
			n2 := c.Clone()
			var err error
			if resynth {
				_, _, err = core.CutAndResynthesize(n2, res.Toggled, res.ConstVal)
			} else {
				_, err = cut.Apply(n2.N, res.Toggled, res.ConstVal)
			}
			if err != nil {
				b.Fatal(err)
			}
			kept = n2.N.CellCount()
		}
		b.ReportMetric(float64(kept), "kept-gates")
	}
	b.Run("cut-only", func(b *testing.B) { run(b, false) })
	b.Run("cut+resynth", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblation_XPropagation measures the cost of three-valued
// simulation versus concrete simulation on the same workload.
func BenchmarkAblation_XPropagation(b *testing.B) {
	bm := bench.ByName("intAVG")
	p := bm.MustProg()
	b.Run("concrete", func(b *testing.B) {
		c := cpu.Build()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunWorkload(context.Background(), c, p, bm.Workload(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("symbolic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Analyze(context.Background(), p, symexec.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_WireModel isolates the routed-wire contribution to
// power: the same design and activity with and without wire parasitics.
func BenchmarkAblation_WireModel(b *testing.B) {
	bm := bench.ByName("intAVG")
	p := bm.MustProg()
	c := cpu.Build()
	tr, err := core.RunWorkload(context.Background(), c, p, bm.Workload(1))
	if err != nil {
		b.Fatal(err)
	}
	lib := cells.TSMC65()
	place := layout.Place(c.N, lib)
	noWire := *place
	noWire.WireLenUm = make([]float64, len(place.WireLenUm))

	b.Run("with-wires", func(b *testing.B) {
		var uw float64
		for i := 0; i < b.N; i++ {
			uw = power.Analyze(c.N, lib, place, tr.Toggles, tr.Cycles, 100e6, 1.0).TotalUW
		}
		b.ReportMetric(uw, "uW")
	})
	b.Run("no-wires", func(b *testing.B) {
		var uw float64
		for i := 0; i < b.N; i++ {
			uw = power.Analyze(c.N, lib, &noWire, tr.Toggles, tr.Cycles, 100e6, 1.0).TotalUW
		}
		b.ReportMetric(uw, "uW")
	})
}
