package mutate

import (
	"context"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/symexec"
)

// appCut builds the app-only bespoke design (the cut the deployed
// silicon would carry).
func appCut(t *testing.T, app *symexec.Result) *cpu.Core {
	t.Helper()
	c := cpu.Build()
	if _, _, err := core.CutAndResynthesize(c, app.Toggled, app.ConstVal); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCosimConfirmsStaticVerdicts is the soundness cross-check: running
// every binSearch mutant on the app-only bespoke design must confirm
// every statically-supported mutant (no Unsound entries), while
// unsupported mutants are free to diverge.
func TestCosimConfirmsStaticVerdicts(t *testing.T) {
	b := bench.BinSearch()
	app, _, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts, err := Generate(b)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() && len(muts) > 12 {
		muts = muts[:12]
	}
	res, err := CheckSupport(context.Background(), b, app, muts, Options{
		Cosim: &CosimCheck{Design: appCut(t, app), Workload: b.Workload(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Cosim
	if cs == nil {
		t.Fatal("no cosim report")
	}
	t.Logf("binSearch cosim: checked=%d confirmed=%d conservative=%d mismatched=%d skipped=%d batches=%d",
		cs.Checked, cs.Confirmed, cs.Conservative, cs.Mismatched, cs.Skipped, cs.Batches)
	if len(cs.Unsound) > 0 {
		t.Fatalf("%d statically-supported mutants diverged dynamically: %v", len(cs.Unsound), cs.Unsound)
	}
	if cs.Checked == 0 {
		t.Fatal("cosim executed no mutants")
	}
	if res.Supported > 0 && cs.Confirmed == 0 {
		t.Fatalf("%d mutants statically supported but none confirmed (%d skipped)", res.Supported, cs.Skipped)
	}
	if got := cs.Checked + cs.Skipped; got != res.Total {
		t.Fatalf("cosim accounting: checked+skipped=%d, total=%d", got, res.Total)
	}
	if got := cs.Confirmed + cs.Conservative + cs.Mismatched + len(cs.Unsound); got != cs.Checked {
		t.Fatalf("verdict accounting: %d classified, %d checked", got, cs.Checked)
	}
	if cs.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

// TestCosimNeedsDesign: a nil design is a configuration error, not a
// silent no-op.
func TestCosimNeedsDesign(t *testing.T) {
	b := bench.BinSearch()
	app, _, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts, err := Generate(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckSupport(context.Background(), b, app, muts[:1], Options{Cosim: &CosimCheck{}}); err == nil {
		t.Fatal("nil cosim design accepted")
	}
}
