package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/symexec"
)

const prologue = `
        .org 0xF000
start:  mov #0x5A80, &WDTCTL
        mov #STACKTOP, sp
`

const epilogue = `
halt:   dint
        jmp $
        .org 0xFFFE
        .word start
`

// simpleAdd is a tiny integer workload: sum a RAM array, no multiplier,
// no interrupts, no debugger.
const simpleAdd = prologue + `
        mov #0x900, r4
        clr r5
        mov #8, r6
loop:   add @r4+, r5
        dec r6
        jne loop
        mov r5, &OUTPORT
` + epilogue

func addWorkload() *Workload {
	ram := map[uint16]uint16{}
	for i := 0; i < 8; i++ {
		ram[0x900+uint16(2*i)] = uint16(i + 1)
	}
	return &Workload{RAM: ram}
}

func TestTailorEndToEnd(t *testing.T) {
	p := asm.MustAssemble(simpleAdd)
	res, err := Tailor(context.Background(), p, addWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: %d gates, %.0f um2, %.1f uW (crit %.0f ps)",
		res.Baseline.Gates, res.Baseline.Power.AreaUm2, res.Baseline.Power.TotalUW, res.Baseline.Timing.CriticalPs)
	t.Logf("bespoke:  %d gates, %.0f um2, %.1f uW, slack %.1f%%, Vmin %.2f, %.1f uW at Vmin",
		res.Bespoke.Gates, res.Bespoke.Power.AreaUm2, res.Bespoke.Power.TotalUW,
		100*res.Bespoke.Timing.SlackFrac, res.Bespoke.Timing.Vmin, res.BespokeAtVmin.TotalUW)
	t.Logf("savings: gates %.1f%% area %.1f%% power %.1f%% power@Vmin %.1f%%",
		100*res.GateSavings, 100*res.AreaSavings, 100*res.PowerSavings, 100*res.PowerSavingsVmin)

	// The paper's ranges: gate savings 44-88%, area 46-92%, power 37-74%.
	// Require the broad shape.
	if res.GateSavings < 0.30 {
		t.Errorf("gate savings %.2f too low", res.GateSavings)
	}
	if res.AreaSavings < 0.30 {
		t.Errorf("area savings %.2f too low", res.AreaSavings)
	}
	if res.PowerSavings < 0.15 {
		t.Errorf("power savings %.2f too low", res.PowerSavings)
	}
	if res.PowerSavingsVmin < res.PowerSavings {
		t.Errorf("Vmin power savings %.2f below nominal %.2f", res.PowerSavingsVmin, res.PowerSavings)
	}
	if res.Bespoke.Timing.SlackFrac <= 0 {
		t.Error("no slack exposed by cutting")
	}
	if res.Bespoke.Timing.Vmin >= 1.0 {
		t.Error("Vmin did not drop below nominal")
	}
}

// TestBespokeStillExecutes is the heart of the correctness claim: the cut
// design must produce the same outputs as the baseline on the workload.
func TestBespokeStillExecutes(t *testing.T) {
	p := asm.MustAssemble(simpleAdd)
	res, err := Tailor(context.Background(), p, addWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseTrace, err := RunWorkload(context.Background(), res.BaselineCore, p, addWorkload())
	if err != nil {
		t.Fatal(err)
	}
	besTrace, err := RunWorkload(context.Background(), res.BespokeCore, p, addWorkload())
	if err != nil {
		t.Fatalf("bespoke design failed to run: %v", err)
	}
	if len(baseTrace.Out) != 1 || baseTrace.Out[0] != 36 {
		t.Fatalf("baseline out = %v, want [36]", baseTrace.Out)
	}
	if len(besTrace.Out) != len(baseTrace.Out) || besTrace.Out[0] != baseTrace.Out[0] {
		t.Fatalf("bespoke out = %v, baseline %v", besTrace.Out, baseTrace.Out)
	}
	if besTrace.Cycles != baseTrace.Cycles {
		t.Errorf("cycle count changed: bespoke %d, baseline %d (no performance degradation allowed)", besTrace.Cycles, baseTrace.Cycles)
	}
}

func TestTailorCoarseRemovesLess(t *testing.T) {
	p := asm.MustAssemble(simpleAdd)
	fine, err := Tailor(context.Background(), p, addWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := TailorCoarse(context.Background(), p, addWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Bespoke.Gates <= fine.Bespoke.Gates {
		t.Errorf("coarse design (%d gates) should keep more than fine-grained (%d)", coarse.Bespoke.Gates, fine.Bespoke.Gates)
	}
	if coarse.GateSavings <= 0 {
		t.Error("coarse design saved nothing (whole modules should drop)")
	}
	// Coarse designs still run.
	if _, err := RunWorkload(context.Background(), coarse.BespokeCore, p, addWorkload()); err != nil {
		t.Fatal(err)
	}
}

func TestTailorMultiUnion(t *testing.T) {
	pAdd := asm.MustAssemble(simpleAdd)
	pMul := asm.MustAssemble(prologue + `
        mov #25, &MPY
        mov #16, &OP2
        mov &RESLO, &OUTPORT
` + epilogue)
	single, err := Tailor(context.Background(), pAdd, addWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := TailorMulti(context.Background(), []*asm.Program{pAdd, pMul}, []*Workload{addWorkload(), nil}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Bespoke.Gates <= single.Bespoke.Gates {
		t.Errorf("multi-program design (%d) should be larger than single (%d)", multi.Bespoke.Gates, single.Bespoke.Gates)
	}
	if multi.GateSavings <= 0 {
		t.Error("multi-program design saved nothing")
	}
	// Both programs must run on the union design.
	tr, err := RunWorkload(context.Background(), multi.BespokeCore, pMul, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Out) != 1 || tr.Out[0] != 400 {
		t.Fatalf("multiplier program on union design: out = %v", tr.Out)
	}
}

// TestAnalyzeRecoversPanic: a panic inside the analysis (here a nil
// program) comes back from Analyze as a *FlowError in the analysis
// stage, so a worker pool running many analyses survives it.
func TestAnalyzeRecoversPanic(t *testing.T) {
	res, c, err := Analyze(context.Background(), nil, symexec.Options{})
	var fe *FlowError
	if !errors.As(err, &fe) {
		t.Fatalf("expected *FlowError, got %T: %v", err, err)
	}
	if fe.Stage != "analysis" {
		t.Errorf("failed stage = %q, want analysis", fe.Stage)
	}
	if res != nil || c != nil {
		t.Errorf("panicked analysis returned a result %v or a core %v", res, c)
	}
}

// TestUnionAnalysisErrorsAreFlowErrors: every error UnionAnalysis
// returns is a *FlowError in the analysis stage (an empty program list,
// an image below ROM), and a cancelled context stays reachable through
// the wrapper.
func TestUnionAnalysisErrorsAreFlowErrors(t *testing.T) {
	low := asm.MustAssemble(strings.Replace(simpleAdd, ".org 0xF000", ".org 0x0200", 1))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		progs []*asm.Program
	}{
		{"no programs", context.Background(), nil},
		{"image below ROM", context.Background(), []*asm.Program{low}},
		{"cancelled", cancelled, []*asm.Program{asm.MustAssemble(simpleAdd)}},
	} {
		_, err := UnionAnalysis(tc.ctx, tc.progs, symexec.Options{})
		var fe *FlowError
		if !errors.As(err, &fe) || fe.Stage != "analysis" {
			t.Errorf("%s: want a *FlowError in stage analysis, got %T: %v", tc.name, err, err)
		}
		if tc.ctx == cancelled && !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error does not unwrap to context.Canceled: %v", tc.name, err)
		}
	}
}

// TestUpdateMissingErrorsAreFlowErrors: an update that fails its
// analysis (an image below ROM) is a *FlowError in the analysis stage,
// like a base program's, so a caller reports it stage-aware; a
// cancelled context stays reachable through the wrapper.
func TestUpdateMissingErrorsAreFlowErrors(t *testing.T) {
	base := []*asm.Program{asm.MustAssemble(simpleAdd)}
	low := asm.MustAssemble(strings.Replace(simpleAdd, ".org 0xF000", ".org 0x0200", 1))
	_, _, err := UpdateMissing(context.Background(), base, low, symexec.Options{})
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != "analysis" || !strings.Contains(err.Error(), "analyzing update") {
		t.Errorf("update below ROM: want a *FlowError in stage analysis, got %T: %v", err, err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = UpdateMissing(cancelled, base, base[0], symexec.Options{})
	if !errors.As(err, &fe) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: want a *FlowError unwrapping to context.Canceled, got %T: %v", err, err)
	}
}

// TestTailorCancelledPromptly: a pre-cancelled context must abort the
// flow at the first hot-loop check, as a *FlowError unwrapping to
// context.Canceled, without doing the expensive analysis.
func TestTailorCancelledPromptly(t *testing.T) {
	p := asm.MustAssemble(simpleAdd)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	_, err := Tailor(ctx, p, addWorkload(), Options{})
	if err == nil {
		t.Fatal("Tailor succeeded under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
	var fe *FlowError
	if !errors.As(err, &fe) {
		t.Fatalf("expected *FlowError, got %T: %v", err, err)
	}
	if fe.Stage != "analysis" {
		t.Errorf("failed stage = %q, want analysis", fe.Stage)
	}
	if d := time.Since(t0); d > 30*time.Second {
		t.Errorf("cancellation took %v; the pre-cancelled flow must return promptly", d)
	}
}
