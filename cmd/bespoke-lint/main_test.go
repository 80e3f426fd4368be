package main

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/lint"
	"bespoke/internal/netlist"
)

// TestNetlistFileKeepsFindings: -netlist reads the structural Verilog
// that bespoke -verilog writes, and linting that file reports the same
// analyzer × severity tallies as linting the netlist it was written
// from, on the base core and on the bespoke cores of mult and binSearch.
func TestNetlistFileKeepsFindings(t *testing.T) {
	ctx := context.Background()
	designs := map[string]*netlist.Netlist{"base core": cpu.Build().N}
	for _, name := range []string{"mult", "binSearch"} {
		b := bench.ByName(name)
		res, err := core.Tailor(ctx, b.MustProg(), b.Workload(1), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		designs[name] = res.BespokeCore.N
	}
	for name, n := range designs {
		want, err := lint.Run(ctx, n, lint.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join(t.TempDir(), "bespoke_core.v")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.WriteVerilog(f, "bespoke_core"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		_, got, err := lintFile(ctx, path, lint.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wt, gt := tally(want), tally(got)
		if len(wt) == 0 || !maps.Equal(wt, gt) {
			t.Errorf("%s: findings from the netlist %v, from its Verilog %v", name, wt, gt)
		}
		t.Logf("%s: %v", name, gt)
	}
}

// tally counts a report's findings per analyzer and severity.
func tally(rep *lint.Report) map[string]int {
	out := map[string]int{}
	for _, f := range rep.Findings {
		out[f.Analyzer+" "+f.Severity.String()]++
	}
	return out
}

// TestBenchTargetRunsItsWorkload: -bench tailors an embedded benchmark
// under its catalog's inputs. binSearch reads its key and table from
// RAM, so with no inputs its baseline signoff stops on an unknown
// register; with them its bespoke core is built and lints clean.
func TestBenchTargetRunsItsWorkload(t *testing.T) {
	ctx := context.Background()
	target, c, err := buildTarget(ctx, "binSearch", nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.LintCore(ctx, c, lint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("%s: %d findings, want clean", target, len(rep.Findings))
	}
}
