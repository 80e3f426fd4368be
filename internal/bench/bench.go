// Package bench provides the paper's benchmark suite (Table 1),
// reimplemented in MSP430 assembly: nine embedded-sensor kernels from the
// Zhai et al. subthreshold suite, four EEMBC-style kernels, and the two
// processor unit tests (irq, dbg), plus the scrambled-intFilt synthetic
// benchmark of Figure 4 and the subneg Turing-complete characterization
// binary of Section 5.3.
//
// Every benchmark reads its inputs from a RAM buffer at InBuf (preloaded
// by the workload) or from the P1 input port, and writes its results to
// the observable OUTPORT stream. Workloads are generated deterministically
// from seeds so the profiling experiment (Figure 2) can sweep many input
// sets.
package bench

import (
	"context"
	"fmt"
	"sync"

	"bespoke/internal/asm"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/isasim"
	"bespoke/internal/msp430"
)

// InBuf is the base byte address of the input buffer in RAM.
const InBuf = 0x0900

// Benchmark is one suite entry.
type Benchmark struct {
	// Name matches the paper's Table 1.
	Name string
	// Desc is the one-line description.
	Desc string
	// Source is the MSP430 assembly text.
	Source string
	// NumInputs is the number of input words the kernel consumes from
	// InBuf (0 for port/interrupt-driven benchmarks).
	NumInputs int
	// GenWorkload builds the workload for a given seed.
	GenWorkload func(seed uint64) *core.Workload
	// MaxCycles bounds concrete runs.
	MaxCycles uint64

	once sync.Once
	prog *asm.Program
	err  error
}

// Prog assembles (once) and returns the binary.
func (b *Benchmark) Prog() (*asm.Program, error) {
	b.once.Do(func() { b.prog, b.err = asm.Assemble(b.Source) })
	return b.prog, b.err
}

// MustProg is Prog for known-good embedded sources.
func (b *Benchmark) MustProg() *asm.Program {
	p, err := b.Prog()
	if err != nil {
		panic("bench " + b.Name + ": " + err.Error())
	}
	return p
}

// Workload returns the seed-th input set.
func (b *Benchmark) Workload(seed uint64) *core.Workload {
	if b.GenWorkload == nil {
		return &core.Workload{MaxCycles: b.MaxCycles}
	}
	w := b.GenWorkload(seed)
	if w.MaxCycles == 0 {
		w.MaxCycles = b.MaxCycles
	}
	return w
}

// rng is a splitmix64 generator for deterministic workloads.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) uint16() uint16 { return uint16(r.next()) }

// ramWords builds a workload that preloads n words at InBuf.
func ramWords(seed uint64, n int, transform func(i int, v uint16) uint16) *core.Workload {
	r := rng(seed)
	ram := map[uint16]uint16{}
	for i := 0; i < n; i++ {
		v := r.uint16()
		if transform != nil {
			v = transform(i, v)
		}
		ram[InBuf+uint16(2*i)] = v
	}
	return &core.Workload{RAM: ram}
}

// RandomWorkload is the seed-th input set for a program outside the
// catalog, whose inputs are unknown: every word of the data RAM random,
// a new random P1 value every 97 cycles, and every 1,000 cycles from
// cycle 100 one randomly picked IRQ line held high for 40 cycles, both
// schedules through cycle 200,000. It sets no cycle bound, so runs stop
// at core.DefaultMaxCycles.
func RandomWorkload(seed uint64) *core.Workload {
	const until = 200_000
	r := rng(seed)
	w := &core.Workload{RAM: make(map[uint16]uint16, msp430.RAMSize/2)}
	for a := msp430.RAMStart; a < msp430.RAMEnd; a += 2 {
		w.RAM[a] = r.uint16()
	}
	for at := uint64(0); at <= until; at += 97 {
		w.P1 = append(w.P1, core.P1Step{At: at, Value: r.uint16()})
	}
	for at := uint64(100); at <= until; at += 1000 {
		line := int(r.next() % 3)
		w.IRQ = append(w.IRQ,
			core.IRQStep{At: at, Line: line, Level: true},
			core.IRQStep{At: at + 40, Line: line, Level: false})
	}
	return w
}

// prologue/epilogue shared by all kernels: hold the watchdog, set up the
// stack, and terminate with the self-jump convention.
const prologue = `
        .equ INBUF, 0x0900
        .org 0xE000
start:  mov #0x5A80, &WDTCTL
        mov #STACKTOP, sp
`

const epilogue = `
done:   dint
        jmp $
        .org 0xFFFE
        .word start
`

// All returns the full suite in the paper's Table 1 order.
func All() []*Benchmark {
	return []*Benchmark{
		BinSearch(), Div(), InSort(), IntAVG(), IntFilt(), Mult(), RLE(),
		THold(), Tea8(), FFT(), Viterbi(), ConvEn(), Autocorr(), IRQ(), Dbg(),
	}
}

// Quick returns the five-benchmark subset that smoke runs use.
func Quick() []*Benchmark {
	return []*Benchmark{BinSearch(), IntAVG(), IntFilt(), Mult(), Dbg()}
}

// ByName returns the named benchmark or nil.
func ByName(name string) *Benchmark {
	for _, b := range All() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// RunISA executes the benchmark's workload on the instruction-level
// golden model and returns the halted machine.
func (b *Benchmark) RunISA(seed uint64) (*isasim.Machine, error) {
	p, err := b.Prog()
	if err != nil {
		return nil, err
	}
	m := isasim.New(p.Bytes, p.Origin)
	w := b.Workload(seed)
	return m, RunISAWorkload(m, w)
}

// RunGate executes the benchmark's workload on a freshly built gate-level
// core and returns the trace.
func (b *Benchmark) RunGate(seed uint64) (*core.RunTrace, error) {
	p, err := b.Prog()
	if err != nil {
		return nil, err
	}
	c := cpu.Build()
	return core.RunWorkload(context.Background(), c, p, b.Workload(seed))
}

// RunGate is a package-level convenience mirroring Benchmark.RunGate.
func RunGate(b *Benchmark, seed uint64) (*core.RunTrace, error) { return b.RunGate(seed) }

// RunISAWorkload drives a prepared machine through a workload until the
// halt convention.
func RunISAWorkload(m *isasim.Machine, w *core.Workload) error {
	stim := w.Start(m)
	max := w.Budget()
	for !m.Halted {
		stim.Apply(m.Cycles)
		if m.Cycles >= max {
			return fmt.Errorf("bench: ISA run did not halt in %d cycles (pc=%#04x)", max, m.Regs[0])
		}
		if err := m.Step(); err != nil {
			if err == isasim.ErrHalted {
				break
			}
			return err
		}
	}
	return nil
}
