package main

import (
	"bytes"
	"context"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/lint"
	"bespoke/internal/netlist"
)

// TestNetlistFileKeepsFindings: -netlist reads the structural Verilog
// that tailor -verilog writes, and linting that file reports the same
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

// TestBenchTargetRunsItsWorkload: a benchmark name tailors an embedded
// benchmark under its catalog's inputs. binSearch reads its key and
// table from RAM, so with no inputs its baseline signoff stops on an
// unknown register; with them its bespoke core is built and lints clean.
func TestBenchTargetRunsItsWorkload(t *testing.T) {
	ctx := context.Background()
	target, c, err := buildTarget(ctx, []string{"binSearch"})
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

// haltSrc is a program that halts at once.
const haltSrc = `
        .org 0xF000
start:  mov #0x5A80, &WDTCTL
        mov #STACKTOP, sp
        dint
        jmp $
        .org 0xFFFE
        .word start
`

// TestDispatch runs command lines through the front door in-process and
// checks each exit status and the message that explains it: a malformed
// or conflicting command line exits 2 before any flow work and names the
// problem, no argument is silently ignored, and the verdicts keep their
// own codes (1 for lint findings, 3 for an unsupported update).
func TestDispatch(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.s"), filepath.Join(dir, "b.s")
	bad, mult := filepath.Join(dir, "bad.s"), filepath.Join(dir, "mult.s")
	verilog := filepath.Join(dir, "base.v")
	files := map[string]string{a: haltSrc, b: haltSrc, bad: "        frob r4\n", mult: bench.Mult().Source}
	for path, src := range files {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var v bytes.Buffer
	if err := cpu.Build().N.WriteVerilog(&v, "base_core"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(verilog, v.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		code int
		msg  string // in stdout or stderr
	}{
		{"no subcommand", nil, 2, "usage: bespoke <tailor|prove|lint|faults>"},
		{"unknown subcommand", []string{"frob"}, 2, `bespoke: unknown subcommand "frob"`},
		{"retired -bench flag", []string{"prove", "-bench", "mult"}, 2, "flag provided but not defined: -bench"},
		{"unknown benchmark", []string{"prove", "mult", "nosuch"}, 2, `bespoke prove: unknown benchmark "nosuch"`},
		{"tailor without a target", []string{"tailor"}, 2, "bespoke tailor: no target"},
		{"assembly error", []string{"lint", bad}, 2, "bespoke lint: " + bad + ":"},
		{"-coarse with two files", []string{"tailor", "-coarse", a, b}, 2, "-coarse tailors one program, got 2 targets"},
		{"-coarse with all", []string{"tailor", "-coarse", "all"}, 2, "-coarse tailors one program, got 15 targets"},
		{"-check with design flags", []string{"tailor", "-check", a, "-verilog", "o.v", "-coarse", "-path", "-def", "o.def", b},
			2, "-check only reports update support; it takes no -coarse, -def, -path, -verilog"},
		{"-netlist with targets", []string{"lint", "-netlist", verilog, "mult", b}, 2, "-netlist takes no targets, got mult " + b},
		{"-list with a target", []string{"lint", "-list", "mult"}, 2, "-list takes no targets, got mult"},
		{"-k without -induct", []string{"prove", "-k", "2", "mult"}, 2, "-k caps the induction ladder; it needs -induct or -invariants"},
		{"negative -k", []string{"prove", "-k", "-3", "-induct", "mult"}, 2, "bespoke prove: -k -3: an induction depth cannot be negative"},
		{"negative -budget", []string{"prove", "-budget", "-5", "mult"}, 2, "bespoke prove: -budget -5: a conflict budget cannot be negative"},
		{"-max-assumed below -1", []string{"prove", "-max-assumed", "-7", "mult"}, 2, "bespoke prove: -max-assumed -7: the gate is -1 (off) or an assumed-claim count"},
		{"retired -workers flag", []string{"prove", "-workers", "2", "mult"}, 2, "flag provided but not defined: -workers"},
		{"-set 0 with SET flags", []string{"faults", "-faults", "8", "-seu", "0", "-set", "0", "-set-budget", "-1", "-map", "mult"},
			2, "-set 0 runs no SET campaign; it takes no -set-budget, -map"},
		{"negative -seu", []string{"faults", "-faults", "8", "-seu", "-1", "-set", "0", "mult"}, 2, "bespoke faults: -seu -1: an injection count cannot be negative"},
		{"negative -set", []string{"faults", "-faults", "8", "-seu", "0", "-set", "-2", "mult"}, 2, "bespoke faults: -set -2: an injection count cannot be negative"},
		{"negative -faults", []string{"faults", "-faults", "-3", "mult"}, 2, "bespoke faults: -faults -3: an injection count cannot be negative"},
		{"analyzer names trimmed", []string{"lint", "-analyzer", "comb-loop, dead-logic", "mult"}, 0, "analyzers: comb-loop, dead-logic\nclean"},
		{"faults loads its files", []string{"faults", filepath.Join(dir, "missing.s")}, 2, "missing.s: no such file"},
		{"flow error names stage and target", []string{"faults", "-timeout", "1ns", "mult"},
			2, "bespoke faults: mult: tailor: the analysis stage failed\nbespoke faults:   the -timeout budget expired"},
		{"help", []string{"lint", "-h"}, 0, "-netlist string"},
		{"list analyzers", []string{"lint", "-list"}, 0, "comb-loop"},
		{"lint findings reject", []string{"lint", "-netlist", verilog}, 1, "findings"},
		{"SET report only", []string{"faults", "-faults", "8", "-seu", "0", "-set", "24", "mult"}, 0, "SET resilience (baseline vs bespoke)"},
		{"SET budget rejects", []string{"faults", "-faults", "8", "-seu", "0", "-set", "24", "-set-budget", "-1", "mult"},
			1, "worst module multiplier at 18.2% visible)\nbespoke faults: 1 benchmark(s) failed the SET resilience signoff"},
		{"update supported", []string{"tailor", "-check", a, b}, 0, "SUPPORTED: " + a},
		{"update unsupported", []string{"tailor", "-check", mult, a}, 3, "NOT SUPPORTED: " + mult},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			out := stdout.String() + stderr.String()
			if code != tc.code || !strings.Contains(out, tc.msg) {
				t.Errorf("exit %d, output %q; want exit %d naming %q", code, out, tc.code, tc.msg)
			}
		})
	}
}

// TestCatalogSourcesAsFiles: every catalog program, written to a .s
// file, loads through the front door's loader, tailors and signs off
// under the default workload, lints clean, and keeps the bespoke gate
// count of its catalog-name target, which runs the catalog's own
// inputs. Under -short only binSearch and irq run, one from each class
// that fails with no inputs: binSearch reads RAM, so its PC goes
// unknown, and irq waits for interrupts that never come.
func TestCatalogSourcesAsFiles(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	for _, cb := range bench.All() {
		if testing.Short() && cb.Name != "binSearch" && cb.Name != "irq" {
			continue
		}
		t.Run(cb.Name, func(t *testing.T) {
			path := filepath.Join(dir, cb.Name+".s")
			if err := os.WriteFile(path, []byte(cb.Source), 0o644); err != nil {
				t.Fatal(err)
			}
			fromFile, fromName := tailorTarget(t, path), tailorTarget(t, cb.Name)
			rep, err := core.LintCore(ctx, fromFile.BespokeCore, lint.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Findings) != 0 {
				t.Errorf("%s: %d lint findings, want clean", path, len(rep.Findings))
			}
			if fromFile.Bespoke.Gates != fromName.Bespoke.Gates {
				t.Errorf("bespoke gates %d from the file, %d from the catalog name",
					fromFile.Bespoke.Gates, fromName.Bespoke.Gates)
			}
		})
	}
}

// tailorTarget loads one target argument and tailors it.
func tailorTarget(t *testing.T, arg string) *core.Result {
	t.Helper()
	targets, err := load([]string{arg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tailorAll(context.Background(), targets, core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", arg, err)
	}
	return res
}
