package mutate

import (
	"context"
	"errors"
	"testing"
	"time"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/symexec"
)

func TestGenerateBinSearch(t *testing.T) {
	muts, err := Generate(bench.BinSearch())
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) == 0 {
		t.Fatal("no mutants")
	}
	by := CountByType(muts)
	t.Logf("binSearch mutants: I=%d II=%d III=%d", by[TypeI], by[TypeII], by[TypeIII])
	// binSearch's loop uses unconditional back-jumps with forward guard
	// branches, so its conditional mutants are Type I here.
	if by[TypeI] == 0 {
		t.Error("expected conditional-operator (Type I) mutants")
	}
	for _, m := range muts {
		if _, err := m.Prog(); err != nil {
			t.Errorf("mutant %s at line %d does not assemble: %v", m.Desc, m.Line, err)
		}
	}
}

func TestGenerateTea8HasComputationMutants(t *testing.T) {
	muts, err := Generate(bench.Tea8())
	if err != nil {
		t.Fatal(err)
	}
	by := CountByType(muts)
	if by[TypeII] == 0 {
		t.Error("tea8 should have computation-operator mutants (adds/xors)")
	}
	t.Logf("tea8 mutants: I=%d II=%d III=%d", by[TypeI], by[TypeII], by[TypeIII])
}

func TestMutantsDifferFromBase(t *testing.T) {
	b := bench.Div()
	muts, err := Generate(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		if m.Source == b.Source {
			t.Fatalf("mutant %s line %d identical to base", m.Desc, m.Line)
		}
	}
}

func TestBranchMutantsLargelySupported(t *testing.T) {
	// binSearch's guard branches are input-dependent: the activity
	// analysis explores both directions, so a flipped branch exercises
	// no new gates and should be supported - the effect behind the
	// paper's high Type I/III support rates in Table 5.
	b := bench.BinSearch()
	app, _, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts, err := Generate(b)
	if err != nil {
		t.Fatal(err)
	}
	var condOnly []*Mutant
	for _, m := range muts {
		if m.Type == TypeI || m.Type == TypeIII {
			condOnly = append(condOnly, m)
		}
	}
	res, err := CheckSupport(context.Background(), b, app, condOnly, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("binSearch conditional mutants: %d/%d supported", res.Supported, res.Total)
	if res.Supported == 0 {
		t.Errorf("no conditional mutants supported; flipped input-dependent branches should mostly reuse explored gates")
	}
}

func TestCheckSupportMidCampaignCancellation(t *testing.T) {
	// Cancelling the context mid-campaign must abort the parallel fan-out
	// promptly with the context error rather than a per-mutant verdict.
	b := bench.BinSearch()
	app, _, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts, err := Generate(b)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CheckSupport(ctx, b, app, muts, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled campaign returned %v, want context.Canceled", err)
	}

	// And with a deadline that expires while analyses are in flight.
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := CheckSupport(ctx, b, app, muts, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired campaign returned %v, want context.DeadlineExceeded", err)
	}
}

func TestCheckSupportIntAVG(t *testing.T) {
	// intAVG's add->sub mutants need the ALU's operand-inversion path,
	// which the add-only application never exercises, so low support is
	// expected; the checker must classify them without error.
	b := bench.IntAVG()
	app, _, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts, err := Generate(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckSupport(context.Background(), b, app, muts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("intAVG: %d/%d supported (%d analyzable, %d failures)",
		res.Supported, res.Total, res.MutantsAnalyzable, res.AnalysisFailures)
	if res.Total == 0 {
		t.Fatal("no mutants")
	}
	if res.Supported < 0 || res.Supported > res.Total {
		t.Fatal("inconsistent support count")
	}
	// The union design must be at least as large as the app's own.
	appKept, unionKept := 0, 0
	for g := range app.Toggled {
		if app.Toggled[g] {
			appKept++
		}
		if res.Union.Toggled[g] {
			unionKept++
		}
	}
	if unionKept < appKept {
		t.Error("union smaller than application alone")
	}
}
