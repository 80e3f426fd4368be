package bespoke

// One testing.B benchmark per table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus microbenchmarks of the
// substrates and ablations of the design choices DESIGN.md calls out.
// Domain results are attached with b.ReportMetric so a bench run doubles
// as a results table.

import (
	"context"
	"io"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/cells"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/cut"
	"bespoke/internal/experiments"
	"bespoke/internal/faultinject"
	"bespoke/internal/induct"
	"bespoke/internal/layout"
	"bespoke/internal/netlist"
	"bespoke/internal/power"
	"bespoke/internal/symexec"
	"bespoke/internal/synth"
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
		res, _, err := symexec.Analyze(context.Background(), p, symexec.Options{})
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
	res, c, err := symexec.Analyze(context.Background(), p, symexec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var kept int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n2 := c.Clone()
		if _, err := cut.Apply(n2.N, res.Toggled, res.ConstVal); err != nil {
			b.Fatal(err)
		}
		var keep []netlist.GateID
		keep = append(keep, n2.ROM.Inputs()...)
		keep = append(keep, n2.RAM.Inputs()...)
		synth.Optimize(n2.N, keep)
		kept = n2.N.CellCount()
	}
	b.ReportMetric(float64(kept), "kept-gates")
}

// BenchmarkInduct measures the k-induction engine alone on mult's real
// core: the proof spec (seeded by an analysis that records bus domains)
// and the cut plan's claims are built once, as the flow builds them, and
// only induct.Prove is timed.
func BenchmarkInduct(b *testing.B) {
	p := bench.ByName("mult").MustProg()
	res, _, err := symexec.Analyze(context.Background(), p, symexec.Options{RecordDomains: true})
	if err != nil {
		b.Fatal(err)
	}
	base := cpu.Build()
	base.LoadProgram(p.Bytes, p.Origin)
	claims, err := cut.Plan(base.N, res.Toggled, res.ConstVal)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := induct.NewCoreSpec(base, res, induct.DefaultSampleCycles)
	if err != nil {
		b.Fatal(err)
	}
	var ires *induct.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ires, err = induct.Prove(context.Background(), spec, claims, induct.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ires.Queries), "queries")
	b.ReportMetric(float64(len(ires.Invariants)), "invariants")
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

// BenchmarkNetlistCodec measures the canonical binary encoder and
// decoder on the full CPU netlist (the tailored-core cache's hot path).
func BenchmarkNetlistCodec(b *testing.B) {
	n := cpu.Build().N
	enc := netlist.Encode(n)
	b.Run("encode", func(b *testing.B) {
		var bytes int
		for i := 0; i < b.N; i++ {
			bytes = len(netlist.Encode(n))
		}
		b.ReportMetric(float64(bytes), "bytes")
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netlist.Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTailorCacheHit measures rehydrating a tailored design from
// the content-addressed cache against re-running the flow.
func BenchmarkTailorCacheHit(b *testing.B) {
	bm := bench.ByName("div")
	tc := core.NewTailorCache()
	if _, err := tc.Tailor(context.Background(), bm.MustProg(), bm.Workload(1), core.Options{}); err != nil {
		b.Fatal(err)
	}
	var gates int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tc.Tailor(context.Background(), bm.MustProg(), bm.Workload(1), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		gates = res.Bespoke.Gates
	}
	b.ReportMetric(float64(gates), "bespoke-gates")
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
				res, c, err := symexec.Analyze(context.Background(), p, symexec.Options{MergeThreshold: th})
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
	res, c, err := symexec.Analyze(context.Background(), p, symexec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, resynth bool) {
		var kept int
		for i := 0; i < b.N; i++ {
			n2 := c.Clone()
			if _, err := cut.Apply(n2.N, res.Toggled, res.ConstVal); err != nil {
				b.Fatal(err)
			}
			if resynth {
				var keep []netlist.GateID
				keep = append(keep, n2.ROM.Inputs()...)
				keep = append(keep, n2.RAM.Inputs()...)
				synth.Optimize(n2.N, keep)
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
			if _, _, err := symexec.Analyze(context.Background(), p, symexec.Options{}); err != nil {
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
