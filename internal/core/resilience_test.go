package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
)

// cachedAdd mirrors the in-package simpleAdd workload: sum eight RAM
// words and write the total to OUTPORT.
const cachedAdd = `
        .org 0xF000
start:  mov #0x5A80, &WDTCTL
        mov #STACKTOP, sp
        mov #0x900, r4
        clr r5
        mov #8, r6
loop:   add @r4+, r5
        dec r6
        jne loop
        mov r5, &OUTPORT
halt:   dint
        jmp $
        .org 0xFFFE
        .word start
`

func cachedAddWorkload() *core.Workload {
	ram := map[uint16]uint16{}
	for i := 0; i < 8; i++ {
		ram[0x900+uint16(2*i)] = uint16(i + 1)
	}
	return &core.Workload{RAM: ram}
}

// fakeRunner returns a ResilienceRunner that fabricates a report with
// vis visible strikes out of 8 on the bespoke design, letting the gate
// logic be tested without the cost (or the package cycle) of the real
// SET engine.
func fakeRunner(vis int) core.ResilienceRunner {
	return func(ctx context.Context, base, bespoke *cpu.Core, prog *asm.Program, w *core.Workload, opts core.ResilienceOptions) (*core.ResilienceReport, error) {
		dv := core.DesignVuln{
			Sites: 10, Injected: 8, Masked: 8 - vis, Visible: vis,
			Modules: []core.ModuleVuln{
				{Module: "alu", Sites: 10, Injected: 8, Masked: 8 - vis, Visible: vis},
			},
		}
		return &core.ResilienceReport{
			Faults:   opts.Faults,
			Seed:     opts.Seed,
			Baseline: dv,
			Bespoke:  dv,
		}, nil
	}
}

// TestResilienceFailsClosedWithoutRunner: requesting the resilience
// stage without wiring a campaign runner must reject the flow with a
// typed error, never silently skip the signoff.
func TestResilienceFailsClosedWithoutRunner(t *testing.T) {
	p := asm.MustAssemble(cachedAdd)
	_, err := core.Tailor(context.Background(), p, cachedAddWorkload(), core.Options{
		Resilience: &core.ResilienceOptions{Faults: 4},
	})
	if err == nil {
		t.Fatal("flow succeeded with a resilience stage but no runner")
	}
	var re *core.ResilienceError
	if !errors.As(err, &re) {
		t.Fatalf("expected *core.ResilienceError, got: %v", err)
	}
	if !strings.Contains(re.Reason, "no campaign runner") {
		t.Fatalf("unexpected reason: %q", re.Reason)
	}
	var fe *core.FlowError
	if !errors.As(err, &fe) || fe.Stage != "resilience" {
		t.Fatalf("failure not attributed to the resilience stage: %v", err)
	}
}

// TestResilienceBudgetViolation: a campaign whose visible fraction
// exceeds MaxVisible rejects the flow with the report attached.
func TestResilienceBudgetViolation(t *testing.T) {
	p := asm.MustAssemble(cachedAdd)
	_, err := core.Tailor(context.Background(), p, cachedAddWorkload(), core.Options{
		Resilience: &core.ResilienceOptions{Faults: 8, MaxVisible: 0.1, Run: fakeRunner(2)},
	})
	if err == nil {
		t.Fatal("flow accepted 2/8 visible strikes against a 0.1 budget")
	}
	var re *core.ResilienceError
	if !errors.As(err, &re) {
		t.Fatalf("expected *core.ResilienceError, got: %v", err)
	}
	if re.Budget != 0.1 || re.Report == nil || re.Report.Bespoke.Visible != 2 {
		t.Fatalf("violation detail wrong: %+v", re)
	}
	if mod, frac := re.WorstModule(); mod != "alu" || frac != 0.25 {
		t.Fatalf("WorstModule = %q/%v, want alu/0.25", mod, frac)
	}
}

// TestResilienceZeroTolerance: a negative MaxVisible means any visible
// strike fails, while an all-masked campaign passes.
func TestResilienceZeroTolerance(t *testing.T) {
	p := asm.MustAssemble(cachedAdd)
	_, err := core.Tailor(context.Background(), p, cachedAddWorkload(), core.Options{
		Resilience: &core.ResilienceOptions{Faults: 8, MaxVisible: -1, Run: fakeRunner(1)},
	})
	var re *core.ResilienceError
	if !errors.As(err, &re) {
		t.Fatalf("zero-tolerance budget accepted a visible strike: %v", err)
	}

	res, err := core.Tailor(context.Background(), p, cachedAddWorkload(), core.Options{
		Resilience: &core.ResilienceOptions{Faults: 8, MaxVisible: -1, Run: fakeRunner(0)},
	})
	if err != nil {
		t.Fatalf("all-masked campaign rejected: %v", err)
	}
	if res.Resilience == nil || res.Resilience.Bespoke.Masked != 8 {
		t.Fatalf("report not attached or wrong: %+v", res.Resilience)
	}
}
