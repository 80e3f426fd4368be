// Package bespoke is a from-scratch Go reproduction of "Bespoke
// Processors for Applications with Ultra-low Area and Power Constraints"
// (Cherupalli, Duwe, Ye, Kumar, Sartori; ISCA 2017), and this file is its
// public API: assemble an MSP430 application, tailor the general purpose
// gate-level microcontroller to it, and inspect the resulting bespoke
// design.
//
//	prog, _ := bespoke.Assemble(source)
//	res, _ := bespoke.Tailor(context.Background(), prog, nil, bespoke.Options{})
//	fmt.Println(res.GateSavings, res.PowerSavings)
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory). The commands under cmd/ and the programs under examples/
// bypass this file: they import internal/core, which it wraps, directly.
package bespoke

import (
	"context"
	"io"

	"bespoke/internal/asm"
	"bespoke/internal/core"
)

// Program is an assembled MSP430 binary image plus its metadata
// (symbols, source map, decoded instructions).
type Program = asm.Program

// Workload is a representative concrete stimulus (RAM preload, input
// port and interrupt schedules) used for dynamic power measurement and
// input-based verification.
type Workload = core.Workload

// Result is the outcome of tailoring: baseline and bespoke signoff
// metrics, the analysis statistics, the headline savings, and the still-
// executable bespoke design.
type Result = core.Result

// Options tunes the flow (analysis limits and the formal gate).
type Options = core.Options

// FlowError is the structured failure of one pipeline stage. Every error
// returned by the tailoring entry points — including recovered panics
// from malformed inputs — is a *FlowError; its Stage names the pipeline
// stage that failed and Unwrap exposes the cause (context errors, the
// symexec watchdog's *symexec.LimitError, ...).
type FlowError = core.FlowError

// Assemble translates MSP430 assembly (the dialect documented in
// internal/asm) into a Program.
func Assemble(source string) (*Program, error) { return asm.Assemble(source) }

// Tailor produces a bespoke processor for one application: it proves
// which gates the binary can never toggle for any input, cuts them,
// re-synthesizes, places, and signs off timing and power against the
// general purpose baseline. A nil workload measures power on a plain
// run of the program. Cancellation and deadlines are honored inside the
// analysis and simulation hot loops (checked every 1024 simulated
// cycles), so a caller can bound the flow's wall-clock cost; the
// returned error then wraps context.Canceled or
// context.DeadlineExceeded.
func Tailor(ctx context.Context, prog *Program, w *Workload, opts Options) (*Result, error) {
	return core.Tailor(ctx, prog, w, opts)
}

// TailorMulti produces one bespoke processor supporting every given
// application (the union of their exercisable gates, Section 3.5), with
// the same cancellation semantics as Tailor.
func TailorMulti(ctx context.Context, progs []*Program, ws []*Workload, opts Options) (*Result, error) {
	return core.TailorMulti(ctx, progs, ws, opts)
}

// SupportsUpdate reports whether the bespoke design tailored to base
// would execute update correctly: every gate the update can exercise
// must be kept (the paper's Section 3.5 in-field update test). The
// flow options apply to both activity analyses (the base union and the
// update).
func SupportsUpdate(ctx context.Context, base []*Program, update *Program, opts Options) (bool, error) {
	missing, _, err := core.UpdateMissing(ctx, base, update, opts.Sym)
	if err != nil {
		return false, err
	}
	return len(missing) == 0, nil
}

// WriteVerilog emits a result's bespoke netlist as structural Verilog.
func WriteVerilog(res *Result, w io.Writer) error {
	return res.BespokeCore.N.WriteVerilog(w, "bespoke_core")
}
