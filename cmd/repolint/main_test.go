package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes path->source under a temp root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestFlagsMissingContext(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/flow.go": `package core

import "context"

// tailor is the ctx-taking worker the exported wrapper hides.
func tailor(ctx context.Context) error { return ctx.Err() }

// Tailor drops the caller's control over cancellation.
func Tailor() error { return tailor(context.Background()) }

// Describe is cheap and should not be flagged.
func Describe() string { return "flow" }
`,
	})
	issues, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 {
		t.Fatalf("got %d issues, want 1: %v", len(issues), issues)
	}
	if !strings.Contains(issues[0].Msg, "Tailor does long-running work") ||
		!strings.Contains(issues[0].Msg, "calls tailor, which takes a context") {
		t.Errorf("unexpected issue: %+v", issues[0])
	}
}

func TestFlagsWrapperOfCtxFunction(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/symexec/analyze.go": `package symexec

import "context"

func analyze(ctx context.Context, prog []byte) error { return nil }

// Analyze is flagged even without touching context.Background: it can
// only call analyze with a context it made up.
func Analyze(prog []byte) error { return analyze(nil, prog) }
`,
	})
	issues, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 || !strings.Contains(issues[0].Msg, "calls analyze, which takes a context") {
		t.Fatalf("got %v, want one wrapper issue", issues)
	}
}

func TestFlagsStrayPrints(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sim/debug.go": `package sim

import "fmt"

func step() {
	fmt.Println("cycle done")
	println("raw")
}
`,
		// Test files and non-internal files are out of scope.
		"internal/sim/debug_test.go": `package sim

import "fmt"

func helper() { fmt.Println("fine in tests") }
`,
	})
	issues, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 2 {
		t.Fatalf("got %d issues, want 2: %v", len(issues), issues)
	}
	if !strings.Contains(issues[0].Msg, "fmt.Println") || !strings.Contains(issues[1].Msg, "builtin println") {
		t.Errorf("unexpected issues: %v", issues)
	}
}

func TestCtxRuleScopedToFlowPackages(t *testing.T) {
	// The same wrapper shape outside core/symexec/faultinject is fine:
	// report formatting, cell libraries etc. have no business with
	// contexts.
	root := writeTree(t, map[string]string{
		"internal/report/table.go": `package report

import "context"

func render(ctx context.Context) error { return nil }

func Render() error { return render(context.Background()) }
`,
	})
	issues, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Fatalf("got %v, want none outside the flow packages", issues)
	}
}

func TestFlagsMethodAndSelectorWrappers(t *testing.T) {
	// The ctx rule sees through receivers: an exported wrapper that
	// drives a ctx-taking method (or a selector call sharing a
	// same-package ctx function's name) is flagged like a bare call.
	root := writeTree(t, map[string]string{
		"internal/faultinject/campaign.go": `package faultinject

import "context"

type engine struct{}

func (engine) run(ctx context.Context) error { return ctx.Err() }

// Campaign hides the campaign's cancellation behind the receiver.
func Campaign() error {
	var e engine
	return e.run(nil)
}

// Sites is structural bookkeeping and stays unflagged.
func Sites() int { return 0 }
`,
	})
	issues, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 || !strings.Contains(issues[0].Msg, "calls run, which takes a context") {
		t.Fatalf("got %v, want exactly the Campaign issue", issues)
	}
}

func TestRepositoryIsClean(t *testing.T) {
	issues, err := run("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range issues {
		t.Errorf("%s:%d: %s", is.File, is.Line, is.Msg)
	}
}

func TestCtxRuleCoversSolverPackages(t *testing.T) {
	// The SAT solver and the equivalence engine can run unboundedly; an
	// exported entry point that hides the context is flagged there too.
	root := writeTree(t, map[string]string{
		"internal/sat/solver.go": `package sat

import "context"

func solve(ctx context.Context) error { return ctx.Err() }

// Solve hides the caller's cancellation from an unbounded search.
func Solve() error { return solve(context.Background()) }
`,
		"internal/equiv/prove.go": `package equiv

import "context"

func prove(ctx context.Context) error { return nil }

// ProveClaims wraps the ctx worker without threading a context.
func ProveClaims() error { return prove(nil) }
`,
	})
	issues, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 2 {
		t.Fatalf("got %d issues, want 2: %v", len(issues), issues)
	}
	for _, is := range issues {
		if !strings.Contains(is.Msg, "without a leading context.Context") {
			t.Errorf("unexpected issue: %+v", is)
		}
	}
}

func TestFlagsBarePanic(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/power/model.go": `package power

import "fmt"

// Scale is library code: failures must be error values.
func Scale(f float64) float64 {
	if f < 0 {
		panic(fmt.Sprintf("negative frequency %v", f))
	}
	return f * 2
}
`,
		// Test files stay out of scope for the panic rule too.
		"internal/power/model_test.go": `package power

func helper() { panic("fine in tests") }
`,
	})
	issues, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 || !strings.Contains(issues[0].Msg, "bare panic in Scale") {
		t.Fatalf("got %v, want exactly the Scale panic issue", issues)
	}
}

func TestPanicBoundariesExempt(t *testing.T) {
	// must*/Must* helpers, init, and functions owning a recover boundary
	// are the places where panicking is the contract.
	root := writeTree(t, map[string]string{
		"internal/layout/place.go": `package layout

func init() {
	panic("registration conflict")
}

func mustParse(s string) int {
	panic("bad literal " + s)
}

// MustPlace is the documented panicking variant of Place.
func MustPlace() {
	panic("no placement")
}

// Walk converts its visitor's panics into an error at this boundary.
func Walk() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = nil
		}
	}()
	panic("unwind")
}
`,
	})
	issues, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Fatalf("got %v, want no issues for panic boundaries", issues)
	}
}

func TestPanicOKAnnotation(t *testing.T) {
	// A same-line or previous-line "panic-ok: <reason>" annotation
	// exempts exactly that panic; a bare annotation without a reason
	// does not count.
	root := writeTree(t, map[string]string{
		"internal/layout/route.go": `package layout

func route(n int) int {
	if n < 0 {
		panic("unreachable: callers validate n") // panic-ok: n was range-checked by Place
	}
	if n > 99 {
		// panic-ok: grid widths beyond 99 are rejected at parse time
		panic("unreachable: grid too wide")
	}
	if n == 13 {
		panic("reasonless") // panic-ok:
	}
	return n
}
`,
	})
	issues, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 || issues[0].Line != 12 {
		t.Fatalf("got %v, want exactly the reasonless panic at line 12", issues)
	}
}
