package symexec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/cpu"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
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

func analyze(t *testing.T, src string) (*Result, *asm.Program) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := analyzeProg(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, p
}

func TestStraightLineTerminates(t *testing.T) {
	res, _ := analyze(t, prologue+`
        mov #5, r4
        add #7, r4
        mov r4, &OUTPORT
`+epilogue)
	if res.Paths != 1 {
		t.Errorf("straight-line program explored %d paths, want 1", res.Paths)
	}
	if res.Cycles == 0 || res.Cycles > 200 {
		t.Errorf("cycles = %d", res.Cycles)
	}
}

func TestConcreteLoopRunsExactly(t *testing.T) {
	res, _ := analyze(t, prologue+`
        clr r4
        mov #10, r5
loop:   inc r4
        dec r5
        jne loop
        mov r4, &OUTPORT
`+epilogue)
	// Input-independent loop: no forking needed.
	if res.Paths != 1 {
		t.Errorf("paths = %d, want 1", res.Paths)
	}
	if res.Merges != 0 {
		t.Errorf("merges = %d, want 0 (trip count under threshold)", res.Merges)
	}
}

func TestInputDependentBranchForks(t *testing.T) {
	res, _ := analyze(t, prologue+`
        mov &P1IN, r4       ; unknown input
        cmp #100, r4
        jl small
        mov #1, &OUTPORT
        jmp halt
small:  mov #2, &OUTPORT
`+epilogue)
	if res.Paths < 2 {
		t.Errorf("paths = %d, want >= 2 (branch on unknown input)", res.Paths)
	}
}

func TestInputDependentLoopTerminatesViaMerge(t *testing.T) {
	// The loop trip count depends on an unknown input: naive DFS would
	// explore up to 2^16 paths; the conservative approximation must
	// terminate quickly.
	res, _ := analyze(t, prologue+`
        mov &P1IN, r5       ; unknown trip count
loop:   dec r5
        jne loop
        mov #1, &OUTPORT
`+epilogue)
	if res.Cycles > 4_000_000 {
		t.Errorf("cycles = %d, too many for a merged loop", res.Cycles)
	}
	if res.Paths < 2 {
		t.Errorf("paths = %d", res.Paths)
	}
}

func TestInfiniteConcretePollingLoopTerminates(t *testing.T) {
	// A stable polling loop (no state change) must be detected as an
	// exact repeat... here the loop waits forever on an input bit.
	res, _ := analyze(t, prologue+`
wait:   bit #1, &P1IN
        jz wait
        mov #1, &OUTPORT
`+epilogue)
	if res.Paths < 2 {
		t.Errorf("paths = %d", res.Paths)
	}
}

func TestMultiplierUntouchedWhenUnused(t *testing.T) {
	res, core := mustAnalyze(t, prologue+`
        mov #3, r4
        add #4, r4
        mov r4, &OUTPORT
`+epilogue)
	byMod := core.N.GatesByModule()
	mult := byMod["multiplier"]
	toggled := 0
	for _, g := range mult {
		if res.Toggled[g] {
			toggled++
		}
	}
	// The multiplier's combinational array must be completely quiet;
	// allow nothing at all to toggle there.
	if toggled != 0 {
		t.Errorf("%d/%d multiplier gates toggled in a program that never multiplies", toggled, len(mult))
	}
}

func TestMultiplierActiveWhenUsed(t *testing.T) {
	res, core := mustAnalyze(t, prologue+`
        mov #123, &MPY
        mov #45, &OP2
        mov &RESLO, &OUTPORT
`+epilogue)
	byMod := core.N.GatesByModule()
	toggled := 0
	for _, g := range byMod["multiplier"] {
		if res.Toggled[g] {
			toggled++
		}
	}
	if toggled == 0 {
		t.Error("multiplier unused by a multiplying program")
	}
}

// analyzeProg elaborates a core, loads p and analyzes it, as
// core.Analyze does (this package's tests cannot import core).
func analyzeProg(ctx context.Context, p *asm.Program, opts Options) (*Result, *cpu.Core, error) {
	c := cpu.Build()
	if err := c.LoadProgram(p.Bytes, p.Origin); err != nil {
		return nil, nil, err
	}
	res, err := Analyze(ctx, c, opts)
	return res, c, err
}

func mustAnalyze(t *testing.T, src string) (*Result, *cpu.Core) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, core, err := analyzeProg(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, core
}

func TestUntoggledGatesHaveConstants(t *testing.T) {
	p := asm.MustAssemble(prologue + `
        mov #1, &OUTPORT
` + epilogue)
	res, core, err := analyzeProg(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := core.N
	count := 0
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case netlist.Const0, netlist.Const1, netlist.Input:
			continue
		}
		if !res.Toggled[i] {
			count++
			if res.ConstVal[i] == logic.X {
				t.Fatalf("untoggled gate %d has X constant", i)
			}
		}
	}
	if count == 0 {
		t.Fatal("no untoggled gates found")
	}
	frac := float64(count) / float64(n.CellCount())
	t.Logf("untoggled: %d/%d (%.1f%%)", count, n.CellCount(), 100*frac)
	// The paper's Figure 10: 43-70%+ of gates untoggleable. A trivial
	// program should leave well over a third of the core quiet.
	if frac < 0.3 {
		t.Errorf("untoggled fraction %.2f suspiciously low", frac)
	}
}

func TestInterruptForking(t *testing.T) {
	res, _ := analyze(t, prologue+`
        mov #1, &IE1
        eint
        clr r4
wait:   tst r4
        jz wait
        dint
        mov r4, &OUTPORT
        jmp halt
isr:    mov #1, r4
        reti
`+epilogue+`
        .org 0xFFF6
        .word isr
`)
	// The interrupt line is unknown: both the taken and not-taken
	// worlds must be explored.
	if res.Paths < 3 {
		t.Errorf("paths = %d, want several (irq forking)", res.Paths)
	}
}

func TestSafetyCap(t *testing.T) {
	// A loop that counts a full 16-bit register with a conditional exit
	// on an input: merging must make this terminate far under the cap.
	p := asm.MustAssemble(prologue + `
        clr r4
loop:   inc r4
        bit #1, &P1IN
        jz loop
        mov r4, &OUTPORT
` + epilogue)
	res, _, err := analyzeProg(context.Background(), p, Options{MaxCycles: 6_000_000})
	if err != nil {
		t.Fatalf("merge did not bound the exploration: %v", err)
	}
	_ = res
}

func TestDbgModuleQuietWithoutDebugger(t *testing.T) {
	p := asm.MustAssemble(prologue + `
        mov #9, &OUTPORT
` + epilogue)
	res, core, err := analyzeProg(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byMod := core.N.GatesByModule()
	toggledDbg := 0
	for _, g := range byMod["dbg"] {
		if res.Toggled[g] {
			toggledDbg++
		}
	}
	if frac := float64(toggledDbg) / float64(len(byMod["dbg"])); frac > 0.1 {
		t.Errorf("dbg module %.0f%% active in a program that never touches it", frac*100)
	}
}

// TestCycleBudgetExhaustion drives the watchdog: a loop whose concrete
// state never repeats (a counting register) cannot be covered or merged
// away, so a tiny budget must exhaust with partial-progress diagnostics.
func TestCycleBudgetExhaustion(t *testing.T) {
	p := asm.MustAssemble(prologue + `
count:  inc r4
        jmp count
` + epilogue)
	_, _, err := analyzeProg(context.Background(), p, Options{MaxCycles: 200})
	if err == nil {
		t.Fatal("analysis of a non-terminating counter succeeded under a 200-cycle budget")
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("expected *LimitError, got %T: %v", err, err)
	}
	if !strings.Contains(le.Reason, "cycle budget") {
		t.Errorf("reason %q does not name the cycle budget", le.Reason)
	}
	if le.MaxCycles != 200 {
		t.Errorf("MaxCycles = %d, want 200", le.MaxCycles)
	}
	if le.Cycles < 200 {
		t.Errorf("progress snapshot has %d cycles, want >= budget", le.Cycles)
	}
	if le.Paths < 1 {
		t.Errorf("progress snapshot has %d paths, want >= 1", le.Paths)
	}
}

// TestAnalyzeCancelled: a pre-cancelled context aborts the analysis with
// a watchdog error that unwraps to context.Canceled.
func TestAnalyzeCancelled(t *testing.T) {
	p := asm.MustAssemble(prologue + `
        mov r4, &OUTPORT
` + epilogue)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := analyzeProg(ctx, p, Options{})
	if err == nil {
		t.Fatal("analysis succeeded under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("expected *LimitError, got %T: %v", err, err)
	}
	if le.Reason != "cancelled" {
		t.Errorf("reason = %q, want cancelled", le.Reason)
	}
}
