package cpu

import (
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/isasim"
	"bespoke/internal/msp430"
)

// cosim locksteps the gate-level core against the ISA-level golden model:
// after every instruction, all registers, the cycle count, and the output
// stream must agree; at halt, data RAM must agree.
func cosim(t *testing.T, src string, maxInsts int) (*Harness, *isasim.Machine) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := isasim.New(p.Bytes, p.Origin)
	h, err := NewHarnessOn(Build(), p.Bytes, p.Origin)
	if err != nil {
		t.Fatal(err)
	}
	if got := pcOf(t, h); got != m.Regs[msp430.PC] {
		t.Fatalf("reset vector mismatch: gate %#04x, isa %#04x", got, m.Regs[msp430.PC])
	}
	for i := 0; i < maxInsts; i++ {
		if m.Halted {
			break
		}
		pcBefore := m.Regs[msp430.PC]
		cyclesBefore := m.Cycles
		if err := m.Step(); err != nil && err != isasim.ErrHalted {
			t.Fatal(err)
		}
		gateCycles, err := h.StepInstr()
		if err != nil {
			t.Fatalf("inst %d at pc=%#04x: %v", i, pcBefore, err)
		}
		if want := int(m.Cycles - cyclesBefore); gateCycles != want {
			t.Errorf("inst %d at pc=%#04x: gate took %d cycles, model predicts %d", i, pcBefore, gateCycles, want)
		}
		for r := 0; r < 16; r++ {
			if r == int(msp430.CG) {
				continue
			}
			got, err := h.Reg(r)
			if err != nil {
				t.Fatalf("inst %d at pc=%#04x: %v", i, pcBefore, err)
			}
			if got != m.Regs[r] {
				t.Fatalf("inst %d at pc=%#04x: r%d = %#04x, isa model has %#04x", i, pcBefore, r, got, m.Regs[r])
			}
		}
		if len(h.Out) > len(m.Out) {
			t.Fatalf("inst %d at pc=%#04x: gate emitted extra output %#x", i, pcBefore, h.Out[len(h.Out)-1])
		}
		for j := range h.Out {
			if h.Out[j] != m.Out[j] {
				t.Fatalf("output %d: gate %#x, isa %#x", j, h.Out[j], m.Out[j])
			}
		}
	}
	if !m.Halted {
		t.Fatalf("program did not halt in %d instructions", maxInsts)
	}
	if len(h.Out) != len(m.Out) {
		t.Fatalf("output length: gate %d, isa %d", len(h.Out), len(m.Out))
	}
	// Compare every RAM word.
	for a := int(msp430.RAMStart); a < int(msp430.RAMEnd); a += 2 {
		w := h.RAMWord(uint16(a))
		if !w.Known() {
			continue // never written at gate level; isa model has 0
		}
		want := m.RAMWord(uint16(a))
		if w.Val != want {
			t.Errorf("ram[%#04x] = %#04x, isa %#04x", a, w.Val, want)
		}
	}
	return h, m
}

const prologue = `
        .org 0xF000
start:  mov #0x5A80, &WDTCTL
        mov #STACKTOP, sp
`

const epilogue = `
halt:   jmp $
        .org 0xFFFE
        .word start
`

func TestCosimBasicALU(t *testing.T) {
	cosim(t, prologue+`
        mov #5, r4
        add #7, r4
        sub #2, r4
        mov #0x8000, r5
        add #0x8000, r5
        adc r4
        mov #0xF0F0, r6
        and #0xFF00, r6
        bis #0x000F, r6
        bic #0x8000, r6
        xor #0x00FF, r6
        mov r4, &OUTPORT
        mov r6, &OUTPORT
`+epilogue, 1000)
}

func TestCosimAllAddressingModes(t *testing.T) {
	cosim(t, prologue+`
        mov #0x900, r4
        mov #0x1234, 0(r4)    ; indexed dst
        mov #0x5678, 2(r4)
        mov 0(r4), r5         ; indexed src
        mov @r4, r6           ; indirect
        mov @r4+, r7          ; indirect autoincrement
        mov @r4+, r8
        mov r5, &0x904        ; absolute dst
        mov &0x904, r9        ; absolute src
        add -2(r4), r9        ; indexed src with computed base (r4 is now 0x904)
        mov r9, &OUTPORT
        mov r7, &OUTPORT
        mov r8, &OUTPORT
`+epilogue, 1000)
}

func TestCosimJumpsAndFlags(t *testing.T) {
	cosim(t, prologue+`
        clr r4
        mov #10, r5
loop:   inc r4
        dec r5
        jne loop
        cmp #10, r4
        jeq ok
        mov #0xBAD, &OUTPORT
ok:     cmp #-5, r4
        jge ge
        mov #0xBAD2, &OUTPORT
ge:     mov #5, r6
        cmp #9, r6
        jl less
        mov #0xBAD3, &OUTPORT
less:   jc cset
        jnc cclr
cset:   mov #0xBAD4, &OUTPORT
cclr:   jn neg
        mov r4, &OUTPORT
neg:
`+epilogue, 1000)
}

func TestCosimByteOps(t *testing.T) {
	cosim(t, prologue+`
        mov #0x1234, r4
        mov.b r4, r5
        add.b #0xF0, r5
        mov #0x900, r6
        mov #0xAABB, 0(r6)
        mov.b #0xCC, 1(r6)
        mov.b #0xDD, 0(r6)
        mov @r6, &OUTPORT
        mov #btab, r7
        clr r8
bloop:  add.b @r7+, r8
        cmp #btabend, r7
        jne bloop
        mov r8, &OUTPORT
        xor.b #0xFF, r8
        mov r8, &OUTPORT
        rra.b r8
        rrc.b r8
        mov r8, &OUTPORT
        jmp halt
btab:   .byte 3, 9, 27, 81
btabend:
`+epilogue, 1000)
}

func TestCosimCallStackPushPop(t *testing.T) {
	cosim(t, prologue+`
        mov #4, r12
        call #quad
        mov r12, &OUTPORT
        push #0x1111
        push r12
        pop r5
        pop r6
        mov r5, &OUTPORT
        mov r6, &OUTPORT
        jmp halt
quad:   push r4
        mov r12, r4
        add r4, r4
        add r4, r4
        mov r4, r12
        pop r4
        ret
`+epilogue, 1000)
}

func TestCosimShifts(t *testing.T) {
	cosim(t, prologue+`
        mov #0x8003, r4
        rra r4
        mov r4, &OUTPORT
        setc
        rrc r4
        mov r4, &OUTPORT
        swpb r4
        mov r4, &OUTPORT
        sxt r4
        mov r4, &OUTPORT
        rla r4
        rlc r4
        mov r4, &OUTPORT
        mov #0x900, r5
        mov #0x00F1, 0(r5)
        rra 0(r5)             ; memory RMW
        mov 0(r5), &OUTPORT
`+epilogue, 1000)
}

func TestCosimMultiplier(t *testing.T) {
	cosim(t, prologue+`
        mov #1234, &MPY
        mov #567, &OP2
        mov &RESLO, &OUTPORT
        mov &RESHI, &OUTPORT
        mov #-3, &MPYS
        mov #9, &OP2
        mov &RESLO, &OUTPORT
        mov &RESHI, &OUTPORT
        mov &SUMEXT, &OUTPORT
        mov #100, &MPY
        mov #100, &OP2
        mov #50, &MAC
        mov #2, &OP2
        mov &RESLO, &OUTPORT
        mov &SUMEXT, &OUTPORT
`+epilogue, 1000)
}

func TestCosimDADD(t *testing.T) {
	cosim(t, prologue+`
        clrc
        mov #0x0199, r4
        dadd #0x0001, r4
        mov r4, &OUTPORT
        setc
        mov #0x0999, r5
        dadd #0x0000, r5
        mov r5, &OUTPORT
        clrc
        mov #0x45, r6
        dadd.b #0x55, r6
        mov r6, &OUTPORT
`+epilogue, 1000)
}

func TestCosimSoftwareInterrupt(t *testing.T) {
	// Software-triggered interrupt: set IFG bit with GIE enabled.
	cosim(t, prologue+`
        mov #2, &IE1        ; enable line 1
        clr r4
        eint
        mov #2, &IFG        ; trigger
        nop
        dint
        mov r4, &OUTPORT
        jmp halt
isr1:   mov #0x77, r4
        reti
`+epilogue+`
        .org 0xFFF8
        .word isr1
`, 1000)
}

func TestCosimDebugUnit(t *testing.T) {
	cosim(t, prologue+`
        mov #target, &DBGDATA
        mov #3, &DBGCTL
        clr r4
loop:
target: inc r4
        cmp #4, r4
        jne loop
        mov &DBGHITS, &OUTPORT
        mov &DBGSTEPS, &OUTPORT
        clr &DBGCTL
        mov #0xAB, &DBGCTL+8
        mov &DBGCTL+8, &OUTPORT
`+epilogue, 1000)
}

func TestCosimWatchdogAndPorts(t *testing.T) {
	cosim(t, `
        .org 0xF000
start:  mov &WDTCTL, &OUTPORT
        mov #0x1280, &WDTCTL
        mov &WDTCTL, &OUTPORT
        mov #0x5A80, &WDTCTL
        mov &WDTCTL, &OUTPORT
        mov #STACKTOP, sp
        mov #0x00FF, &P1DIR
        mov #0x0055, &P1OUT
        mov &P1OUT, &OUTPORT
        mov &P1DIR, &OUTPORT
`+epilogue, 1000)
}

func TestCosimMovAutoIncSameReg(t *testing.T) {
	cosim(t, prologue+`
        mov #tab, r4
        mov @r4+, r4
        mov r4, &OUTPORT
        jmp halt
tab:    .word 0x7777
`+epilogue, 1000)
}

func TestCosimROMDataTables(t *testing.T) {
	cosim(t, prologue+`
        mov #tab, r4
        clr r5
tloop:  add @r4+, r5
        cmp #tabend, r4
        jne tloop
        mov r5, &OUTPORT
        mov tab+2, r6          ; absolute read from ROM
        mov r6, &OUTPORT
        jmp halt
tab:    .word 10, 20, 30
tabend:
`+epilogue, 1000)
}

func TestCosimStatusRegisterWrites(t *testing.T) {
	cosim(t, prologue+`
        mov #0x107, r2        ; write V,N,Z,C directly (not CPUOFF/GIE)
        mov #0, r2
        setc
        mov r2, r4
        mov r4, &OUTPORT
        bis #0x107, r2        ; C,Z,N,V set
        mov r2, r5
        mov r5, &OUTPORT
        clr r2
`+epilogue, 1000)
}

func TestCosimHardwareIRQLine(t *testing.T) {
	// Gate-level external interrupt: pulse the pin, expect the handler.
	p := asm.MustAssemble(prologue + `
        mov #1, &IE1
        eint
        clr r4
wait:   tst r4
        jeq wait
        dint
        mov r4, &OUTPORT
        jmp halt
isr0:   mov #0x55, r4
        reti
` + epilogue + `
        .org 0xFFF6
        .word isr0
`)
	h, err := NewHarnessOn(Build(), p.Bytes, p.Origin)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		h.StepCycle()
	}
	h.SetIRQ(0, true)
	for i := 0; i < 8; i++ {
		h.StepCycle()
	}
	h.SetIRQ(0, false)
	for i := 0; i < 400 && len(h.Out) == 0; i++ {
		h.StepCycle()
	}
	if len(h.Out) != 1 || h.Out[0] != 0x55 {
		t.Fatalf("Out = %#v, want [0x55]", h.Out)
	}
}

func TestCosimClockDivider(t *testing.T) {
	// Program the MCLK divider: execution slows but stays correct.
	p := asm.MustAssemble(prologue + `
        mov #1, &BCSCTL       ; divide by 2
        mov #3, r4
        add #4, r4
        mov r4, &OUTPORT
        clr &BCSCTL
` + epilogue)
	h, err := NewHarnessOn(Build(), p.Bytes, p.Origin)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000 && len(h.Out) == 0; i++ {
		h.StepCycle()
	}
	if len(h.Out) != 1 || h.Out[0] != 7 {
		t.Fatalf("Out = %#v, want [7]", h.Out)
	}
}

func TestNetlistShape(t *testing.T) {
	c := Build()
	st := c.N.Stats()
	t.Logf("core: %d gates (%d comb, %d dff), depth %d", st.Gates, st.Comb, st.Dffs, st.Depth)
	if st.Gates < 4000 {
		t.Errorf("core suspiciously small: %d gates", st.Gates)
	}
	if st.Gates > 40000 {
		t.Errorf("core suspiciously large: %d gates", st.Gates)
	}
	byMod := c.N.GatesByModule()
	for _, m := range []string{"frontend", "execution", "alu", "register_file", "mem_backbone", "multiplier", "sfr", "watchdog", "clock_module", "dbg"} {
		if len(byMod[m]) == 0 {
			t.Errorf("module %q has no gates", m)
		}
	}
}

// TestSleepAndWake exercises the CPUOFF low-power path at gate level:
// the core must stall in FETCH while CPUOFF is set and resume through
// the interrupt handler when a line fires. (The ISA model does not
// implement sleep, so this is a gate-only test.)
func TestSleepAndWake(t *testing.T) {
	p := asm.MustAssemble(prologue + `
        mov #1, &IE1
        mov #0x18, r4       ; CPUOFF | GIE
        mov #0xA1, &OUTPORT
        bis r4, r2          ; sleep
        mov #0xA2, &OUTPORT ; runs only after wake
        dint
        jmp $
isr0:   bic #0x10, 0(r1)    ; clear CPUOFF in the saved SR
        reti
` + epilogue + `
        .org 0xFFF6
        .word isr0
`)
	h, err := NewHarnessOn(Build(), p.Bytes, p.Origin)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60 && len(h.Out) < 1; i++ {
		h.StepCycle()
	}
	if len(h.Out) != 1 || h.Out[0] != 0xA1 {
		t.Fatalf("prelude out = %#v", h.Out)
	}
	// Let the bis complete, then the core must be asleep: PC stops.
	for i := 0; i < 10; i++ {
		h.StepCycle()
	}
	pc := pcOf(t, h)
	for i := 0; i < 50; i++ {
		h.StepCycle()
	}
	if got := pcOf(t, h); got != pc {
		t.Fatalf("core not asleep: pc moved %#04x -> %#04x", pc, got)
	}
	if len(h.Out) != 1 {
		t.Fatalf("output while asleep: %#v", h.Out)
	}
	// Wake it.
	h.SetIRQ(0, true)
	for i := 0; i < 10; i++ {
		h.StepCycle()
	}
	h.SetIRQ(0, false)
	for i := 0; i < 400 && len(h.Out) < 2; i++ {
		h.StepCycle()
	}
	if len(h.Out) != 2 || h.Out[1] != 0xA2 {
		t.Fatalf("after wake out = %#v", h.Out)
	}
}

// pcOf reads the program counter, failing the test on unknown bits.
func pcOf(t *testing.T, h *Harness) uint16 {
	t.Helper()
	pc, err := h.Reg(int(msp430.PC))
	if err != nil {
		t.Fatal(err)
	}
	return pc
}
