package core

import (
	"context"
	"fmt"

	"bespoke/internal/asm"
	"bespoke/internal/cpu"
)

// ResilienceOptions configures the optional resilience signoff stage: a
// combinational single-event-transient (SET) campaign run on both the
// baseline and the bespoke design with identical seeding, aggregated
// into per-module vulnerability maps and gated on a visibility budget.
//
// The campaign itself lives in internal/faultinject (which depends on
// this package), so the engine is injected through Run rather than
// imported: callers set Run to faultinject.TailorGate. The stage fails
// closed — requesting resilience without a runner is a *ResilienceError,
// never a silent skip.
type ResilienceOptions struct {
	// Faults is the number of SET injections sampled per design
	// (0 means the default, 64).
	Faults int
	// Seed drives the (site, cycle) sampling; identical seeds give the
	// baseline and bespoke campaigns the same strike schedule shape.
	Seed uint64
	// Workers is the campaign fan-out width (0 = GOMAXPROCS).
	Workers int
	// MaxVisible is the tolerated fraction (0, 1] of architecturally
	// visible injections on the bespoke design. 0 means 1.0 (the
	// campaign reports, and only a campaign failure aborts the flow);
	// a negative value means zero tolerance — any visible SET fails.
	MaxVisible float64
	// Run executes the campaign (set it to faultinject.TailorGate).
	Run ResilienceRunner
}

// ResilienceRunner is the campaign entry point the resilience stage
// calls: identical SET campaigns on the baseline and bespoke designs,
// classified against the ISA golden model and aggregated per module.
type ResilienceRunner func(ctx context.Context, base, bespoke *cpu.Core, prog *asm.Program, w *Workload, opts ResilienceOptions) (*ResilienceReport, error)

// ModuleVuln is one module's row in a vulnerability map.
type ModuleVuln struct {
	// Module is the top-level builder module name ("glue" for gates in
	// the root module).
	Module string
	// Sites is the module's population of combinational SET sites.
	Sites int
	// Injected counts the campaign's strikes that landed in this module;
	// Masked, Latched and Visible partition them by outcome.
	Injected int
	Masked   int
	Latched  int
	Visible  int
}

// VisibleFrac is the fraction of this module's injections that were
// architecturally visible (0 when nothing was injected).
func (m ModuleVuln) VisibleFrac() float64 {
	if m.Injected == 0 {
		return 0
	}
	return float64(m.Visible) / float64(m.Injected)
}

// DesignVuln is one design's aggregate SET vulnerability.
type DesignVuln struct {
	// Sites is the design's combinational SET site population.
	Sites int
	// Injected counts the strikes run; Masked, Latched and Visible
	// partition them: bit-identical, latched-but-architecturally-silent,
	// and architecturally visible (wrong outputs, wrong timing or hang).
	Injected int
	Masked   int
	Latched  int
	Visible  int
	// Modules is the per-module vulnerability map, sorted by name.
	Modules []ModuleVuln
}

// VisibleFrac is the fraction of injections that were architecturally
// visible (0 when nothing was injected).
func (d DesignVuln) VisibleFrac() float64 {
	if d.Injected == 0 {
		return 0
	}
	return float64(d.Visible) / float64(d.Injected)
}

// ResilienceReport is the resilience stage's outcome: the same seeded
// SET campaign on the baseline and the bespoke design.
type ResilienceReport struct {
	// Faults and Seed echo the campaign knobs that produced the report.
	Faults   int
	Seed     uint64
	Baseline DesignVuln
	Bespoke  DesignVuln
}

// ResilienceError reports that the resilience signoff stage rejected the
// flow: the campaign could not run (no runner configured) or the bespoke
// design's architecturally visible SET fraction exceeded the budget. It
// is the cause inside the "resilience" stage *FlowError.
type ResilienceError struct {
	// Reason is the human-readable failure cause.
	Reason string
	// Budget is the configured visible-fraction budget (0 when the
	// failure happened before the gate was evaluated).
	Budget float64
	// Report carries the campaign outcome when the campaign ran (nil
	// when it could not).
	Report *ResilienceReport
}

func (e *ResilienceError) Error() string {
	if e.Report == nil {
		return fmt.Sprintf("resilience signoff: %s", e.Reason)
	}
	return fmt.Sprintf("resilience signoff: %s (bespoke: %d/%d visible, budget %.4f)",
		e.Reason, e.Report.Bespoke.Visible, e.Report.Bespoke.Injected, e.Budget)
}

// WorstModule returns the bespoke module with the highest visible
// fraction, for diagnostics ("" when no report is attached).
func (e *ResilienceError) WorstModule() (string, float64) {
	if e.Report == nil {
		return "", 0
	}
	name, worst := "", -1.0
	for _, m := range e.Report.Bespoke.Modules {
		if f := m.VisibleFrac(); f > worst {
			name, worst = m.Module, f
		}
	}
	if worst < 0 {
		return "", 0
	}
	return name, worst
}

// resilienceGate runs the configured campaign and applies the visibility
// budget. Fails closed: no runner, a campaign error, or a budget
// violation all reject the flow.
func resilienceGate(ctx context.Context, base, bespoke *cpu.Core, prog *asm.Program, w *Workload, ro ResilienceOptions) (*ResilienceReport, error) {
	if ro.Run == nil {
		return nil, &ResilienceError{
			Reason: "resilience requested but no campaign runner configured (set ResilienceOptions.Run, e.g. faultinject.TailorGate)",
		}
	}
	rep, err := ro.Run(ctx, base, bespoke, prog, w, ro)
	if err != nil {
		return nil, fmt.Errorf("core: resilience campaign: %w", err)
	}
	budget := ro.MaxVisible
	switch {
	case budget == 0:
		budget = 1
	case budget < 0:
		budget = 0
	}
	if frac := rep.Bespoke.VisibleFrac(); frac > budget {
		return rep, &ResilienceError{
			Reason: fmt.Sprintf("visible SET fraction %.4f exceeds budget %.4f", frac, budget),
			Budget: budget,
			Report: rep,
		}
	}
	return rep, nil
}
