package experiments

import (
	"context"
	"fmt"
	"io"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/multiprog"
	"bespoke/internal/mutate"
	"bespoke/internal/powergate"
	"bespoke/internal/report"
	"bespoke/internal/rtos"
	"bespoke/internal/symexec"
	"bespoke/internal/verify"
)

// Table3 runs the verification study: input generation, X-based and
// input-based verification, coverage.
func Table3(w io.Writer, quick bool) ([]*verify.Report, error) {
	maxInputs := 16
	if quick {
		maxInputs = 4
	}
	t := report.NewTable("Table 3: Verification runtime and coverage",
		"Benchmark", "X-based (s)", "Input-based (s)", "Inputs", "Paths", "Line %", "Br %", "Br dir %", "Gate %", "Equiv")
	var reps []*verify.Report
	for _, b := range Suite(quick) {
		rep, err := verify.Run(context.Background(), b, maxInputs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		reps = append(reps, rep)
		t.AddRow(b.Name,
			fmt.Sprintf("%.2f", rep.XTime.Seconds()),
			fmt.Sprintf("%.2f", rep.InputTime.Seconds()),
			fmt.Sprint(rep.NumInputs), fmt.Sprint(rep.Coverage.Paths),
			report.Pct(rep.Coverage.Lines), report.Pct(rep.Coverage.Branches),
			report.Pct(rep.Coverage.BranchDirs), report.Pct(rep.GateCov),
			fmt.Sprint(rep.Equivalent))
	}
	t.Write(w)
	return reps, nil
}

// Fig13 is the multi-program study over all subsets of the suite.
func Fig13(w io.Writer, quick bool) ([]multiprog.Range, error) {
	suite := Suite(quick)
	analyses, gates, err := analyzeSuite(context.Background(), suite)
	if err != nil {
		return nil, err
	}
	ranges := multiprog.GateRanges(analyses, gates)
	ranges, err = multiprog.MeasureExtremes(ranges, analyses)
	if err != nil {
		return nil, err
	}
	base := cpu.Build().N.CellCount()
	t := report.NewTable("Figure 13: Bespoke processors supporting N programs (normalized to baseline)",
		"N", "Gate count min..max", "Area min..max", "Power min..max")
	for _, r := range ranges {
		t.AddRow(fmt.Sprint(r.N),
			fmt.Sprintf("%.2f..%.2f", float64(r.MinGates)/float64(base), float64(r.MaxGates)/float64(base)),
			fmt.Sprintf("%.2f..%.2f", r.MinArea, r.MaxArea),
			fmt.Sprintf("%.2f..%.2f", r.MinPower, r.MaxPower))
	}
	t.Write(w)
	return ranges, nil
}

// MutantBenches are the benchmarks used for Tables 4/5 and Figure 14
// (the paper uses the six with the most mutants).
func MutantBenches(quick bool) []*bench.Benchmark {
	names := []string{"binSearch", "inSort", "rle", "tea8", "Viterbi", "autocorr"}
	if quick {
		names = names[:2]
	}
	out := make([]*bench.Benchmark, len(names))
	for i, n := range names {
		out[i] = bench.ByName(n)
	}
	return out
}

// MutantStudy runs Tables 4 and 5 and the Figure 14 measurements.
type MutantStudy struct {
	Bench   string
	Support *mutate.SupportResult
	// Figure 14: design supporting the app and all analyzable mutants,
	// normalized to the baseline processor.
	NormGates, NormArea, NormPower float64
}

// RunMutants generates mutants per benchmark, checks support against the
// app-only bespoke design, and measures the all-mutants design.
func RunMutants(w io.Writer, quick bool) ([]MutantStudy, error) {
	var studies []MutantStudy
	t4 := report.NewTable("Table 4: Mutants by type", "Benchmark", "Type I", "Type II", "Type III", "Total")
	t5 := report.NewTable("Table 5: Mutants supported by the unmodified bespoke design",
		"Benchmark", "Type I %", "Type II %", "Type III %", "Total %")
	t14 := report.NewTable("Figure 14: Designs supporting the app plus all mutants (normalized)",
		"Benchmark", "Gate count", "Area", "Power")

	pct := func(sup, tot int) string {
		if tot == 0 {
			return "-"
		}
		return report.Pct(float64(sup) / float64(tot))
	}
	for _, b := range MutantBenches(quick) {
		app, appCore, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		muts, err := mutate.Generate(b)
		if err != nil {
			return nil, err
		}
		if quick && len(muts) > 6 {
			muts = muts[:6]
		}
		// The app-only bespoke design both validates the support claims
		// dynamically (64 mutants per bit-parallel simulator pass) and is
		// the Figure 14 baseline.
		appDesign := cpu.Build()
		if _, _, err := core.CutAndResynthesize(appDesign, app.Toggled, app.ConstVal); err != nil {
			return nil, err
		}
		sup, err := mutate.CheckSupport(context.Background(), b, app, muts, mutate.Options{
			Cosim: &mutate.CosimCheck{Design: appDesign, Workload: b.Workload(1)},
		})
		if err != nil {
			return nil, err
		}
		if cs := sup.Cosim; cs != nil {
			if len(cs.Unsound) > 0 {
				return nil, fmt.Errorf("%s: %d statically-supported mutants diverged on the bespoke design (first: mutant %d)",
					b.Name, len(cs.Unsound), cs.Unsound[0])
			}
			fmt.Fprintf(w, "%s cosim: %d mutants executed on the bespoke design (%d batches): %d supported confirmed, %d conservative, %d diverged as predicted, %d skipped\n",
				b.Name, cs.Checked, cs.Batches, cs.Confirmed, cs.Conservative, cs.Mismatched, cs.Skipped)
		}
		t4.Add(b.Name, sup.ByType[mutate.TypeI], sup.ByType[mutate.TypeII], sup.ByType[mutate.TypeIII], sup.Total)
		t5.AddRow(b.Name,
			pct(sup.SupportedByType[mutate.TypeI], sup.ByType[mutate.TypeI]),
			pct(sup.SupportedByType[mutate.TypeII], sup.ByType[mutate.TypeII]),
			pct(sup.SupportedByType[mutate.TypeIII], sup.ByType[mutate.TypeIII]),
			pct(sup.Supported, sup.Total))

		// Figure 14: cut for the union and measure.
		st := MutantStudy{Bench: b.Name, Support: sup}
		mcore := cpu.Build()
		if _, _, err := core.CutAndResynthesize(mcore, sup.Union.Toggled, sup.Union.ConstVal); err != nil {
			return nil, err
		}
		baseCells := appCore.N.CellCount()
		st.NormGates = float64(mcore.N.CellCount()) / float64(baseCells)
		area, pw := multiprog.StaticMetrics(mcore)
		baseArea, basePw := multiprog.StaticMetrics(cpu.Build())
		st.NormArea = area / baseArea
		st.NormPower = pw / basePw
		t14.AddRow(b.Name, fmt.Sprintf("%.2f", st.NormGates),
			fmt.Sprintf("%.2f", st.NormArea), fmt.Sprintf("%.2f", st.NormPower))
		studies = append(studies, st)
	}
	t4.Write(w)
	t5.Write(w)
	t14.Write(w)
	return studies, nil
}

// Fig15 runs the oracular power gating baseline on every benchmark.
func Fig15(w io.Writer, quick bool) (map[string]float64, error) {
	out := map[string]float64{}
	fmt.Fprintln(w, "\nFigure 15: Oracular zero-overhead module-level power gating savings")
	for _, b := range Suite(quick) {
		rep, err := powergate.Analyze(b.MustProg(), b.Workload(1))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		out[b.Name] = rep.SavingsFrac
		report.Bar(w, b.Name, rep.SavingsFrac, 40)
	}
	return out, nil
}

// RTOSStudy is the Section 5.4 system-code experiment.
type RTOSStudy struct {
	Config    string
	Untoggled float64
}

// RunRTOS analyzes the kernel alone and with single tasks, and reports
// the "OS + all tasks" configuration as the union of the per-task
// analyses - the paper's Section 6 treatment of multi-programmed
// settings ("we take the union of the toggle activities of all
// applications ... and the relevant OS code").
func RunRTOS(w io.Writer) ([]RTOSStudy, error) {
	cases := []struct {
		name  string
		tasks []rtos.Task
	}{
		{"OS alone (idle task)", nil},
		{"OS + counter task", []rtos.Task{rtos.CounterTask()}},
		{"OS + sum task", []rtos.Task{rtos.SumTask()}},
		{"OS + mac task", []rtos.Task{rtos.MacTask()}},
	}
	var out []RTOSStudy
	var union *symexec.Result
	var last *cpu.Core
	t := report.NewTable("Section 5.4: System code (RTOS) gate usage", "Configuration", "Untoggleable gates")
	for _, c := range cases {
		p, err := rtos.Build(c.tasks...)
		if err != nil {
			return nil, err
		}
		res, ccore, err := core.Analyze(context.Background(), p, symexec.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		last = ccore
		frac := float64(res.UntoggledCount(ccore.N)) / float64(ccore.N.CellCount())
		out = append(out, RTOSStudy{Config: c.name, Untoggled: frac})
		t.AddRow(c.name, report.Pct(frac))
		if union == nil {
			union = res
		} else {
			union.Merge(res)
		}
	}
	allFrac := float64(union.UntoggledCount(last.N)) / float64(last.N.CellCount())
	out = append(out, RTOSStudy{Config: "OS + all tasks (union)", Untoggled: allFrac})
	t.AddRow("OS + all tasks (union)", report.Pct(allFrac))
	t.Write(w)
	return out, nil
}

// Table6 prints the paper's survey of microarchitectural features in
// recent embedded processors (static data).
func Table6(w io.Writer) {
	t := report.NewTable("Table 6: Microarchitectural features in embedded processors",
		"Processor", "Branch predictor", "Cache")
	for _, r := range [][3]string{
		{"ARM Cortex-M0", "no", "no"},
		{"ARM Cortex-M3", "yes", "no"},
		{"Atmel ATxmega128A4", "no", "no"},
		{"Freescale/NXP MC13224v", "no", "no"},
		{"Intel Quark-D1000", "yes", "yes"},
		{"Jennic/NXP JN5169", "no", "no"},
		{"SiLab Si2012", "no", "no"},
		{"TI MSP430", "no", "no"},
		{"this reproduction's core", "no", "no"},
	} {
		t.AddRow(r[0], r[1], r[2])
	}
	t.Write(w)
}
