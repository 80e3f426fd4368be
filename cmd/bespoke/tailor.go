package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"bespoke/internal/asm"
	"bespoke/internal/cells"
	"bespoke/internal/core"
	"bespoke/internal/layout"
	"bespoke/internal/report"
	"bespoke/internal/symexec"
)

// tailorCmd tailors one design to all targets and prints the savings
// report, or with -check decides in-field update support.
func tailorCmd(fs *flag.FlagSet) runFunc {
	coarse := fs.Bool("coarse", false, "module-level (Xtensa-like) removal instead of gate-level")
	verilog := fs.String("verilog", "", "write the bespoke netlist as structural Verilog to this file")
	def := fs.String("def", "", "write the bespoke placement as DEF to this file")
	path := fs.Bool("path", false, "print the bespoke design's critical path")
	check := fs.String("check", "", "check whether this update binary runs on the bespoke design for the targets (Section 3.5)")
	return func(ctx context.Context, args []string, stdout, _ io.Writer) error {
		if len(args) == 0 {
			return errors.New("no target: pass benchmark names or .s files")
		}
		if *check != "" {
			var ignored []string
			fs.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "coarse", "def", "path", "verilog":
					ignored = append(ignored, "-"+f.Name)
				}
			})
			if len(ignored) > 0 {
				return fmt.Errorf("-check only reports update support; it takes no %s", strings.Join(ignored, ", "))
			}
			return runCheck(ctx, stdout, *check, args)
		}
		targets, err := load(args)
		if err != nil {
			return err
		}
		var res *core.Result
		if *coarse {
			if len(targets) > 1 {
				return fmt.Errorf("-coarse tailors one program, got %d targets", len(targets))
			}
			res, err = core.TailorCoarse(ctx, targets[0].MustProg(), targets[0].Workload(1), core.Options{})
		} else {
			res, err = tailorAll(ctx, targets, core.Options{})
		}
		if err != nil {
			return err
		}
		writeReport(stdout, res, *path)
		if *def != "" {
			place := layout.Place(res.BespokeCore.N, cells.TSMC65())
			if err := writeFile(*def, func(w io.Writer) error {
				return place.WriteDEF(w, res.BespokeCore.N, "bespoke_core")
			}); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nwrote placement DEF to %s\n", *def)
		}
		if *verilog != "" {
			if err := writeFile(*verilog, func(w io.Writer) error {
				return res.BespokeCore.N.WriteVerilog(w, "bespoke_core")
			}); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nwrote structural Verilog to %s\n", *verilog)
		}
		return nil
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCheck decides in-field update support: the update is supported when
// every gate it can exercise is kept in the bespoke design for the base
// targets (the paper's Section 3.5 subset test).
func runCheck(ctx context.Context, w io.Writer, updateFile string, base []string) error {
	targets, err := load(base)
	if err != nil {
		return err
	}
	update, err := loadFile(updateFile)
	if err != nil {
		return err
	}
	progs := make([]*asm.Program, len(targets))
	for i, b := range targets {
		progs[i] = b.MustProg()
	}
	missing, c, err := core.UpdateMissing(ctx, progs, update.MustProg(), symexec.Options{})
	if err != nil {
		return err
	}
	if len(missing) == 0 {
		fmt.Fprintf(w, "SUPPORTED: %s uses only gates kept in the bespoke design for %v\n", updateFile, base)
		return nil
	}
	missingByModule := map[string]int{}
	for _, g := range missing {
		missingByModule[c.N.ModuleOf(g)]++
	}
	fmt.Fprintf(w, "NOT SUPPORTED: %s needs %d gates the bespoke design removed:\n", updateFile, len(missing))
	mods := make([]string, 0, len(missingByModule))
	for m := range missingByModule {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	for _, m := range mods {
		fmt.Fprintf(w, "  %-30s %d gates\n", m, missingByModule[m])
	}
	return &exitStatus{code: 3}
}

// writeReport prints the tailoring report: the baseline and bespoke
// signoff metrics, the analysis statistics, the per-module gate
// accounting and, with showPath, the bespoke critical path.
func writeReport(w io.Writer, res *core.Result, showPath bool) {
	t := report.NewTable("Bespoke tailoring report", "Metric", "Baseline", "Bespoke", "Savings")
	t.AddRow("Gates", fmt.Sprint(res.Baseline.Gates), fmt.Sprint(res.Bespoke.Gates), report.Pct(res.GateSavings))
	t.AddRow("Flip-flops", fmt.Sprint(res.Baseline.Dffs), fmt.Sprint(res.Bespoke.Dffs), "")
	t.AddRow("Area (um^2)", fmt.Sprintf("%.0f", res.Baseline.Power.AreaUm2),
		fmt.Sprintf("%.0f", res.Bespoke.Power.AreaUm2), report.Pct(res.AreaSavings))
	t.AddRow("Power (uW)", fmt.Sprintf("%.1f", res.Baseline.Power.TotalUW),
		fmt.Sprintf("%.1f", res.Bespoke.Power.TotalUW), report.Pct(res.PowerSavings))
	t.AddRow("Power at Vmin (uW)", "-", fmt.Sprintf("%.1f", res.BespokeAtVmin.TotalUW), report.Pct(res.PowerSavingsVmin))
	t.AddRow("Critical path (ps)", fmt.Sprintf("%.0f", res.Baseline.Timing.CriticalPs),
		fmt.Sprintf("%.0f", res.Bespoke.Timing.CriticalPs), "")
	t.AddRow("Exposed slack", "-", report.Pct(res.Bespoke.Timing.SlackFrac), "")
	t.AddRow("Vmin (V)", fmt.Sprintf("%.2f", res.Baseline.Timing.Vmin), fmt.Sprintf("%.2f", res.Bespoke.Timing.Vmin), "")
	t.Write(w)

	fmt.Fprintf(w, "\nAnalysis: %d paths, %d merges, %d cycles; cut %d gates, %d kept\n",
		res.Analysis.Paths, res.Analysis.Merges, res.Analysis.Cycles, res.CutStats.Cut, res.CutStats.Kept)

	// Per-module accounting (modules removed entirely still get a row).
	byMod := res.BespokeCore.N.GatesByModule()
	baseMod := res.BaselineCore.N.GatesByModule()
	names := make([]string, 0, len(baseMod))
	for n := range baseMod {
		names = append(names, n)
	}
	sort.Strings(names)
	mt := report.NewTable("Gates by module", "Module", "Baseline", "Bespoke", "Removed")
	for _, n := range names {
		base := len(baseMod[n])
		kept := len(byMod[n])
		frac := "-"
		if base > 0 {
			frac = report.Pct(1 - float64(kept)/float64(base))
		}
		mt.AddRow(n, fmt.Sprint(base), fmt.Sprint(kept), frac)
	}
	mt.Write(w)

	if showPath {
		pt := report.NewTable("Bespoke critical path", "Arrival (ps)", "Cell", "Module")
		for _, st := range res.Bespoke.Timing.CriticalPath(res.BespokeCore.N) {
			pt.AddRow(fmt.Sprintf("%.0f", st.ArrivalPs), st.Kind.String(), st.Module)
		}
		pt.Write(w)
	}
}
