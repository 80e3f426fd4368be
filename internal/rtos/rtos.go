// Package rtos is a small preemptive round-robin kernel written in
// MSP430 assembly - the reproduction's stand-in for FreeRTOS in the
// paper's Section 5.4 experiment ("system code"). It provides:
//
//   - a tick interrupt (external line 0 in this model) driving the
//     scheduler,
//   - full-context switches (r4-r15 saved on each task's stack, PC/SR
//     restored via RETI),
//   - a static task table with per-task stacks carved out of RAM.
//
// Kernel builds are parameterized by task bodies so the experiment can
// report the OS alone (idle task only), the OS with one application
// task, and the OS with several tasks.
package rtos

import (
	"fmt"
	"strings"

	"bespoke/internal/asm"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
)

// Task is one schedulable body. Code runs in an infinite task loop; it
// must be self-contained assembly using registers r4-r15 and may not use
// the label namespace "k_" (reserved for the kernel) or "tsk<N>_".
type Task struct {
	Name string
	// Code is the task body; it is wrapped in a loop by the kernel.
	Code string
}

// Tasks used by the Section 5.4 experiment: small kernels representative
// of the benchmark suite's behavior classes.

// CounterTask accumulates a counter and reports it periodically.
func CounterTask() Task {
	return Task{Name: "count", Code: `
        inc r4
        bit #0xFF, r4
        jnz $+6
        mov r4, &OUTPORT
`}
}

// SumTask sums a RAM window (intAVG-like).
func SumTask() Task {
	return Task{Name: "sum", Code: `
        clr r5
        mov #0x0900, r6
        mov #8, r7
        add @r6+, r5
        dec r7
        jnz $-4
        mov r5, &OUTPORT
`}
}

// MacTask drives the hardware multiplier (intFilt-like).
func MacTask() Task {
	return Task{Name: "mac", Code: `
        mov #7, &MPY
        mov r8, &OP2
        add &RESLO, r9
        inc r8
        mov r9, &OUTPORT
`}
}

// NumKernelIRQ is the interrupt line used as the scheduler tick.
const NumKernelIRQ = 0

// stackBase is where per-task stacks start (grow down, 64 bytes each).
const stackBase = 0x0F00

// Build assembles a kernel image running the given tasks round-robin.
// With no tasks, an idle task is scheduled (the "OS alone" data point).
func Build(tasks ...Task) (*asm.Program, error) {
	if len(tasks) == 0 {
		tasks = []Task{{Name: "idle", Code: "        nop\n"}}
	}
	if len(tasks) > 4 {
		return nil, fmt.Errorf("rtos: at most 4 tasks")
	}
	var b strings.Builder
	fmt.Fprintf(&b, `
        .equ NTASKS, %d
        .equ TCB, 0x0E00        ; task SP save slots
        .equ CUR, 0x0E20        ; current task index (word)
        .org 0xE000
start:  mov #0x5A80, &WDTCTL
        mov #STACKTOP, sp
        clr &CUR
`, len(tasks))
	// Build each task's initial stack frame: r4-r15 (12 words), then
	// SR, then PC, laid out so the context-switch pops restore it.
	// Frame (low to high): r4..r15, SR, PC. Initial SP points at r4.
	for i, t := range tasks {
		top := stackBase - 0x40*i
		// Frame from SP: r4..r15 at +0..+22, SR at +24, PC at +26.
		// Register slots are zeroed: tasks must start from a defined
		// context, not whatever the RAM powered up as.
		fmt.Fprintf(&b, `
        ; frame for task %d (%s)
        mov #%d, r13            ; frame base (initial task SP)
        mov r13, r12
        mov #12, r14
k_z%d:  clr 0(r12)
        incd r12
        dec r14
        jnz k_z%d
        mov #tsk%d_entry, 26(r13)  ; PC slot
        mov #8, 24(r13)            ; SR slot: GIE set
        mov r13, &TCB+%d
`, i, t.Name, top-28, i, i, i, 2*i)
	}
	b.WriteString(`
        ; switch to task 0: SP <- TCB[0], pop context, reti
        mov &TCB, sp
        jmp k_restore

        ; tick handler: save context, rotate, restore
k_tick: push r15
        push r14
        push r13
        push r12
        push r11
        push r10
        push r9
        push r8
        push r7
        push r6
        push r5
        push r4
        mov &CUR, r15
        rla r15
        mov sp, TCB(r15)        ; save current SP
        mov &CUR, r15
        inc r15
        cmp #NTASKS, r15
        jne k_nowrap
        clr r15
k_nowrap:
        mov r15, &CUR
        rla r15
        mov TCB(r15), sp        ; next task's SP
k_restore:
        pop r4
        pop r5
        pop r6
        pop r7
        pop r8
        pop r9
        pop r10
        pop r11
        pop r12
        pop r13
        pop r14
        pop r15
        reti
`)
	for i, t := range tasks {
		fmt.Fprintf(&b, `
tsk%d_entry:
        mov #1, &IE1            ; keep the tick enabled
tsk%d_loop:
%s        jmp tsk%d_loop
`, i, i, t.Code, i)
	}
	b.WriteString(`
        .org 0xFFF6
        .word k_tick
        .org 0xFFFE
        .word start
`)
	return asm.Assemble(b.String())
}

// RunFor executes the kernel image for a fixed number of cycles on a
// fresh gate-level core (kernels never halt) and returns the output
// stream and toggle counts.
func RunFor(prog *asm.Program, w *core.Workload, cycles uint64) (*core.RunTrace, error) {
	c := cpu.Build()
	h, err := cpu.NewHarnessOn(c, prog.Bytes, prog.Origin)
	if err != nil {
		return nil, err
	}
	stim := w.Start(h)
	h.Sim.ResetToggleCounts()
	for h.Cycles < cycles {
		stim.Apply(h.Cycles)
		h.StepCycle()
	}
	return &core.RunTrace{Out: h.Out, Cycles: h.Cycles, Toggles: append([]uint64(nil), h.Sim.ToggleCount...)}, nil
}

// TickWorkload pulses the tick line periodically for n ticks and returns
// a workload; the run ends at MaxCycles rather than a halt (the kernel
// runs forever), so use RunFor-style budgets.
func TickWorkload(periodCycles uint64, n int) *core.Workload {
	w := &core.Workload{}
	at := periodCycles
	for i := 0; i < n; i++ {
		w.IRQ = append(w.IRQ,
			core.IRQStep{At: at, Line: NumKernelIRQ, Level: true},
			core.IRQStep{At: at + 20, Line: NumKernelIRQ, Level: false},
		)
		at += periodCycles
	}
	w.MaxCycles = at + periodCycles
	return w
}
