// Command bespoke-lint runs the structural netlist analyzers over the
// elaborated base microcontroller, over a bespoke design tailored to one
// or more applications, or over a structural Verilog netlist as written
// by bespoke -verilog — the static half of signoff, usable without any
// workload.
//
// Usage:
//
//	bespoke-lint                 # lint the elaborated base core
//	bespoke-lint prog.s [more.s] # tailor first, lint the bespoke core
//	bespoke-lint -bench mult     # same, for a Table 1 benchmark and its inputs
//	bespoke-lint -netlist out.v  # lint a netlist written by bespoke -verilog
//
// The exit status is 0 when the netlist is clean, 1 when there are
// findings, 2 on usage or flow errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/lint"
	"bespoke/internal/netlist"
)

func main() {
	analyzers := flag.String("analyzer", "", "comma-separated analyzers to run (default all; see -list)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	benches := flag.String("bench", "", "comma-separated Table 1 benchmark names to tailor and lint")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	netFile := flag.String("netlist", "", "lint a structural Verilog netlist, as written by bespoke -verilog, instead of building a core")
	timeout := flag.Duration("timeout", 0, "wall-clock budget (0 = unlimited)")
	flag.Parse()

	if *list {
		for _, name := range lint.Analyzers() {
			fmt.Println(name)
		}
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := lint.Config{}
	if *analyzers != "" {
		cfg.Analyzers = strings.Split(*analyzers, ",")
	}

	var (
		target string
		rep    *lint.Report
		n      *netlist.Netlist
		err    error
	)
	if *netFile != "" {
		target = *netFile
		n, rep, err = lintFile(ctx, *netFile, cfg)
	} else {
		var c *cpu.Core
		target, c, err = buildTarget(ctx, *benches, flag.Args())
		if err == nil {
			n = c.N
			rep, err = core.LintCore(ctx, c, cfg)
		}
	}
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		writeJSON(os.Stdout, target, rep)
	} else {
		writeText(os.Stdout, target, n, rep)
	}
	if len(rep.Findings) > 0 {
		os.Exit(1)
	}
}

// lintFile lints a structural Verilog netlist. The file carries no core
// context, so no keep-alive roots are assumed.
func lintFile(ctx context.Context, path string, cfg lint.Config) (*netlist.Netlist, *lint.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	n, err := netlist.ReadVerilog(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	rep, err := lint.Run(ctx, n, cfg)
	return n, rep, err
}

// buildTarget returns the core to lint: the plain elaboration with no
// arguments, or the bespoke design tailored to the given programs
// (assembly files and/or embedded benchmarks). An embedded benchmark
// runs its catalog's first input set, so input-driven programs can be
// signed off; an assembly file runs with no inputs.
func buildTarget(ctx context.Context, benches string, files []string) (string, *cpu.Core, error) {
	var progs []*asm.Program
	var ws []*core.Workload
	var names []string
	if benches != "" {
		for _, name := range strings.Split(benches, ",") {
			b := bench.ByName(name)
			if b == nil {
				return "", nil, fmt.Errorf("unknown benchmark %q (see internal/bench)", name)
			}
			progs = append(progs, b.MustProg())
			ws = append(ws, b.Workload(1))
			names = append(names, name)
		}
	}
	if len(progs) == 0 && len(files) == 0 {
		return "base core", cpu.Build(), nil
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return "", nil, err
		}
		p, err := asm.Assemble(string(src))
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", f, err)
		}
		progs = append(progs, p)
		ws = append(ws, nil)
		names = append(names, f)
	}
	var res *core.Result
	var err error
	if len(progs) == 1 {
		res, err = core.Tailor(ctx, progs[0], ws[0], core.Options{})
	} else {
		res, err = core.TailorMulti(ctx, progs, ws, core.Options{})
	}
	if err != nil {
		return "", nil, err
	}
	return "bespoke core for " + strings.Join(names, ", "), res.BespokeCore, nil
}

func writeText(w *os.File, target string, n *netlist.Netlist, rep *lint.Report) {
	fmt.Fprintf(w, "bespoke-lint: %s: %d gates, analyzers: %s\n",
		target, rep.NumGates, strings.Join(rep.Ran, ", "))
	for _, f := range rep.Findings {
		loc := ""
		if f.Gate != netlist.None {
			loc = fmt.Sprintf(" gate %d (%s)", f.Gate, n.ModuleOf(f.Gate))
			if name := n.Gates[f.Gate].Name; name != "" {
				loc += " " + name
			}
		}
		if f.Net != netlist.None {
			loc += fmt.Sprintf(" net %d", f.Net)
		}
		fmt.Fprintf(w, "%s: %s:%s %s\n", f.Severity, f.Analyzer, loc, f.Detail)
	}
	if len(rep.Findings) == 0 {
		fmt.Fprintln(w, "clean")
	} else {
		fmt.Fprintf(w, "%d findings\n", len(rep.Findings))
	}
}

// jsonFinding mirrors lint.Finding with the severity as a string, so the
// report is stable and readable for downstream tooling.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Gate     int32  `json:"gate"`
	Net      int32  `json:"net"`
	Detail   string `json:"detail"`
}

type jsonReport struct {
	Target   string        `json:"target"`
	NumGates int           `json:"num_gates"`
	Ran      []string      `json:"ran"`
	Findings []jsonFinding `json:"findings"`
}

func writeJSON(w *os.File, target string, rep *lint.Report) {
	out := jsonReport{Target: target, NumGates: rep.NumGates, Ran: rep.Ran, Findings: []jsonFinding{}}
	for _, f := range rep.Findings {
		out.Findings = append(out.Findings, jsonFinding{
			Analyzer: f.Analyzer,
			Severity: f.Severity.String(),
			Gate:     int32(f.Gate),
			Net:      int32(f.Net),
			Detail:   f.Detail,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	var fe *core.FlowError
	if errors.As(err, &fe) {
		fmt.Fprintf(os.Stderr, "bespoke-lint: the %s stage failed\n", fe.Stage)
		if fe.Gate != netlist.None {
			fmt.Fprintf(os.Stderr, "bespoke-lint:   at gate %d\n", fe.Gate)
		}
		fmt.Fprintf(os.Stderr, "bespoke-lint:   %v\n", fe.Err)
	} else {
		fmt.Fprintln(os.Stderr, "bespoke-lint:", err)
	}
	os.Exit(2)
}
