package core

import (
	"fmt"
	"runtime/debug"

	"bespoke/internal/netlist"
)

// FlowError is the structured failure of one pipeline stage. Every error
// (and every recovered panic) leaving Tailor, TailorMulti, TailorCoarse,
// Prove, UnionAnalysis, UpdateMissing or RunWorkload is a *FlowError, so
// a caller such as a CLI can report which stage failed and, when known,
// which gate was involved, instead of crashing or printing an opaque
// message.
type FlowError struct {
	// Stage names the pipeline stage that failed: "init", "analysis",
	// "baseline-signoff", "cut" (cut and re-synthesis), "lint", "prove",
	// "bespoke-signoff", "multi-check", "vmin" or "workload".
	Stage string
	// Gate is the offending gate when the failure is localized to one
	// (e.g. a cut constant that was not concrete); netlist.None otherwise.
	Gate netlist.GateID
	// Err is the underlying cause. For recovered panics it carries the
	// panic value and a stack trace.
	Err error
}

func (e *FlowError) Error() string {
	if e.Gate != netlist.None {
		return fmt.Sprintf("bespoke flow: stage %s (gate %d): %v", e.Stage, e.Gate, e.Err)
	}
	return fmt.Sprintf("bespoke flow: stage %s: %v", e.Stage, e.Err)
}

// Unwrap exposes the cause, so errors.Is/As reach context errors and
// symexec.LimitError through the stage wrapper.
func (e *FlowError) Unwrap() error { return e.Err }

// guard is deferred around every flow entry point: it converts a panic
// escaping the stage tracked by *stage into a *FlowError carrying the
// panic value and stack, so malformed netlists or API misuse surface as
// errors at the public boundary instead of crashing the process.
func guard(stage *string, errp *error) {
	if r := recover(); r != nil {
		*errp = &FlowError{
			Stage: *stage,
			Gate:  netlist.None,
			Err:   fmt.Errorf("panic: %v\n%s", r, debug.Stack()),
		}
	}
}

// stageErr wraps err with its stage unless it is already a *FlowError.
// A *cut.GateError style cause (anything exposing a GateID) keeps its
// gate diagnostic via the typed check in the caller.
func stageErr(stage string, gate netlist.GateID, err error) error {
	if err == nil {
		return nil
	}
	if fe, ok := err.(*FlowError); ok {
		return fe
	}
	return &FlowError{Stage: stage, Gate: gate, Err: err}
}
