// Command bespoke tailors the general purpose gate-level microcontroller
// to one or more application binaries and reports the savings - the
// paper's toolflow as a command-line tool.
//
// Usage:
//
//	bespoke [-coarse] prog.s [more.s ...]
//
// Each argument is an MSP430 assembly file (see internal/asm for the
// dialect). With several programs, the design supports all of them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"bespoke/internal/asm"
	"bespoke/internal/cells"
	"bespoke/internal/core"
	"bespoke/internal/layout"
	"bespoke/internal/netlist"
	"bespoke/internal/report"
	"bespoke/internal/symexec"
)

func main() {
	coarse := flag.Bool("coarse", false, "module-level (Xtensa-like) removal instead of gate-level")
	verilog := flag.String("verilog", "", "write the bespoke netlist as structural Verilog to this file")
	def := flag.String("def", "", "write the bespoke placement as DEF to this file")
	path := flag.Bool("path", false, "print the bespoke design's critical path")
	check := flag.String("check", "", "check whether this update binary runs on the bespoke design for the given programs (Section 3.5)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole flow (0 = unlimited)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: bespoke [-coarse] [-verilog out.v] [-path] [-check update.s] [-timeout 30s] prog.s [more.s ...]")
		os.Exit(2)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *check != "" {
		if err := runCheck(ctx, *check, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	if err := run(ctx, flag.Args(), *coarse, *verilog, *def, *path); err != nil {
		fatal(err)
	}
}

// fatal prints a stage-aware diagnostic for flow errors — which pipeline
// stage failed, the offending gate when known, and the watchdog's
// partial-progress numbers — instead of one opaque line, then exits.
func fatal(err error) {
	var fe *core.FlowError
	if errors.As(err, &fe) {
		fmt.Fprintf(os.Stderr, "bespoke: the %s stage failed\n", fe.Stage)
		if fe.Gate != netlist.None {
			fmt.Fprintf(os.Stderr, "bespoke:   at gate %d\n", fe.Gate)
		}
		var le *symexec.LimitError
		switch {
		case errors.As(err, &le):
			fmt.Fprintf(os.Stderr, "bespoke:   analysis watchdog: %s\n", le.Reason)
			fmt.Fprintf(os.Stderr, "bespoke:   progress: %d cycles, %d paths, %d branch sites, %d merges, %d worlds pending\n",
				le.Cycles, le.Paths, le.Sites, le.Merges, le.Pending)
			if le.MaxCycles > 0 {
				fmt.Fprintf(os.Stderr, "bespoke:   consider raising the cycle budget (had %d)\n", le.MaxCycles)
			}
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintln(os.Stderr, "bespoke:   the -timeout budget expired; raise it or simplify the program")
			}
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintln(os.Stderr, "bespoke:   the -timeout budget expired; raise it or simplify the program")
		default:
			fmt.Fprintf(os.Stderr, "bespoke:   %v\n", fe.Err)
		}
	} else {
		fmt.Fprintln(os.Stderr, "bespoke:", err)
	}
	os.Exit(1)
}

// runCheck decides in-field update support: the update is supported when
// every gate it can exercise is kept in the bespoke design for the base
// programs (the paper's Section 3.5 subset test).
func runCheck(ctx context.Context, updateFile string, baseFiles []string) error {
	load := func(f string) (*asm.Program, error) {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		p, err := asm.Assemble(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		return p, nil
	}
	var progs []*asm.Program
	for _, f := range baseFiles {
		p, err := load(f)
		if err != nil {
			return err
		}
		progs = append(progs, p)
	}
	update, err := load(updateFile)
	if err != nil {
		return err
	}

	missing, c, err := core.UpdateMissing(ctx, progs, update, symexec.Options{})
	if err != nil {
		return err
	}
	if len(missing) == 0 {
		fmt.Printf("SUPPORTED: %s uses only gates kept in the bespoke design for %v\n", updateFile, baseFiles)
		return nil
	}
	missingByModule := map[string]int{}
	for _, g := range missing {
		missingByModule[c.N.ModuleOf(g)]++
	}
	fmt.Printf("NOT SUPPORTED: %s needs %d gates the bespoke design removed:\n", updateFile, len(missing))
	mods := make([]string, 0, len(missingByModule))
	for m := range missingByModule {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	for _, m := range mods {
		fmt.Printf("  %-30s %d gates\n", m, missingByModule[m])
	}
	os.Exit(3)
	return nil
}

func run(ctx context.Context, files []string, coarse bool, verilogOut, defOut string, showPath bool) error {
	var progs []*asm.Program
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		p, err := asm.Assemble(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		progs = append(progs, p)
	}

	var res *core.Result
	var err error
	switch {
	case coarse:
		res, err = core.TailorCoarse(ctx, progs[0], nil, core.Options{})
	case len(progs) == 1:
		res, err = core.Tailor(ctx, progs[0], nil, core.Options{})
	default:
		res, err = core.TailorMulti(ctx, progs, nil, core.Options{})
	}
	if err != nil {
		return err
	}

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
	t.Write(os.Stdout)

	fmt.Printf("\nAnalysis: %d paths, %d merges, %d cycles; cut %d gates, %d kept\n",
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
	mt.Write(os.Stdout)

	if showPath {
		pt := report.NewTable("Bespoke critical path", "Arrival (ps)", "Cell", "Module")
		steps := res.Bespoke.Timing.CriticalPath(res.BespokeCore.N)
		for _, st := range steps {
			pt.AddRow(fmt.Sprintf("%.0f", st.ArrivalPs), st.Kind.String(), st.Module)
		}
		pt.Write(os.Stdout)
	}

	if defOut != "" {
		f, err := os.Create(defOut)
		if err != nil {
			return err
		}
		defer f.Close()
		place := layout.Place(res.BespokeCore.N, cells.TSMC65())
		if err := place.WriteDEF(f, res.BespokeCore.N, "bespoke_core"); err != nil {
			return err
		}
		fmt.Printf("\nwrote placement DEF to %s\n", defOut)
	}
	if verilogOut != "" {
		f, err := os.Create(verilogOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.BespokeCore.N.WriteVerilog(f, "bespoke_core"); err != nil {
			return err
		}
		fmt.Printf("\nwrote structural Verilog to %s\n", verilogOut)
	}
	return nil
}
