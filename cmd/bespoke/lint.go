package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/lint"
	"bespoke/internal/netlist"
)

// lintCmd runs the structural netlist analyzers over the elaborated base
// core, over the bespoke design tailored to all targets, or with
// -netlist over a structural Verilog netlist as tailor -verilog writes
// it: the static half of signoff. Any finding rejects the design.
func lintCmd(fs *flag.FlagSet) runFunc {
	analyzers := fs.String("analyzer", "", "comma-separated analyzers to run (default all; see -list)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	list := fs.Bool("list", false, "list the available analyzers and exit")
	netFile := fs.String("netlist", "", "lint a structural Verilog netlist, as written by tailor -verilog, instead of building a core")
	return func(ctx context.Context, args []string, stdout, _ io.Writer) error {
		if len(args) > 0 && (*list || *netFile != "") {
			mode := "-netlist"
			if *list {
				mode = "-list"
			}
			return fmt.Errorf("%s takes no targets, got %s", mode, strings.Join(args, " "))
		}
		if *list {
			for _, name := range lint.Analyzers() {
				fmt.Fprintln(stdout, name)
			}
			return nil
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
			target, c, err = buildTarget(ctx, args)
			if err == nil {
				n = c.N
				rep, err = core.LintCore(ctx, c, cfg)
			}
		}
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := writeLintJSON(stdout, target, rep); err != nil {
				return err
			}
		} else {
			writeLintText(stdout, target, n, rep)
		}
		if len(rep.Findings) > 0 {
			return &exitStatus{code: 1}
		}
		return nil
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
// targets, else the bespoke design tailored to all of them, each under
// its first input set.
func buildTarget(ctx context.Context, args []string) (string, *cpu.Core, error) {
	if len(args) == 0 {
		return "base core", cpu.Build(), nil
	}
	targets, err := load(args)
	if err != nil {
		return "", nil, err
	}
	res, err := tailorAll(ctx, targets, core.Options{})
	if err != nil {
		return "", nil, err
	}
	names := make([]string, len(targets))
	for i, b := range targets {
		names[i] = b.Name
	}
	return "bespoke core for " + strings.Join(names, ", "), res.BespokeCore, nil
}

func writeLintText(w io.Writer, target string, n *netlist.Netlist, rep *lint.Report) {
	fmt.Fprintf(w, "bespoke lint: %s: %d gates, analyzers: %s\n",
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

func writeLintJSON(w io.Writer, target string, rep *lint.Report) error {
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
	return enc.Encode(out)
}
