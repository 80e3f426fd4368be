// Package bespoke is a from-scratch Go reproduction of "Bespoke
// Processors for Applications with Ultra-low Area and Power Constraints"
// (Cherupalli, Duwe, Ye, Kumar, Sartori; ISCA 2017), and this file is its
// public API: assemble an MSP430 application, tailor the general purpose
// gate-level microcontroller to it, and inspect the resulting bespoke
// design.
//
//	prog, _ := bespoke.Assemble(source)
//	res, _ := bespoke.Tailor(prog, nil)
//	fmt.Println(res.GateSavings, res.PowerSavings)
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); the commands under cmd/ and the programs under examples/
// are thin clients of the same surface.
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

// Options tunes the flow (analysis limits, clock period, formal and
// resilience gates).
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
// run of the program.
//
// Tailor never honors cancellation (it runs under context.Background());
// callers that need a bounded, cancellable flow use TailorContext.
func Tailor(prog *Program, w *Workload) (*Result, error) {
	return core.Tailor(context.Background(), prog, w, core.Options{})
}

// TailorContext is Tailor with explicit flow options under a caller
// context. Cancellation and deadlines are honored inside the analysis and
// simulation hot loops (checked every 1024 simulated cycles), so a
// caller can bound the flow's wall-clock cost; the returned error wraps
// context.Canceled or context.DeadlineExceeded.
func TailorContext(ctx context.Context, prog *Program, w *Workload, opts Options) (*Result, error) {
	return core.Tailor(ctx, prog, w, opts)
}

// TailorWithOptions is Tailor with explicit flow options.
func TailorWithOptions(prog *Program, w *Workload, opts Options) (*Result, error) {
	return core.Tailor(context.Background(), prog, w, opts)
}

// TailorMulti produces one bespoke processor supporting every given
// application (the union of their exercisable gates, Section 3.5).
func TailorMulti(progs []*Program, ws []*Workload) (*Result, error) {
	return core.TailorMulti(context.Background(), progs, ws, core.Options{})
}

// TailorMultiContext is TailorMulti under a caller context with explicit
// options, with the same cancellation semantics as TailorContext.
func TailorMultiContext(ctx context.Context, progs []*Program, ws []*Workload, opts Options) (*Result, error) {
	return core.TailorMulti(ctx, progs, ws, opts)
}

// SupportsUpdate reports whether the bespoke design tailored to base
// would execute update correctly: every gate the update can exercise
// must be kept (the paper's Section 3.5 in-field update test).
func SupportsUpdate(base []*Program, update *Program) (bool, error) {
	return SupportsUpdateContext(context.Background(), base, update, Options{})
}

// SupportsUpdateContext is SupportsUpdate under a caller context with the
// flow options propagated into both activity analyses (the base union and
// the update), so a tuned MaxCycles or MergeThreshold applies to the whole
// in-field update decision rather than only to the original tailoring.
func SupportsUpdateContext(ctx context.Context, base []*Program, update *Program, opts Options) (bool, error) {
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
