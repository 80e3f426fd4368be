// Package lint is a structural static-analysis engine over gate-level
// netlists: the input-independent counterpart to the flow's dynamic
// guards (cosimulation, XVerify, fault campaigns). Commercial flows run
// SpyGlass-class netlist lint before and after every netlist transform;
// this package plays that role for the bespoke flow, so every produced
// netlist — the elaborated base core, every cut-and-stitched bespoke
// design, every netlist read back from Verilog — gets a cheap,
// workload-independent correctness check.
//
// The engine is a registry of independent, individually-addressable
// analyzers (see Analyzers). Each analyzer scans one class of structural
// defect and emits structured Findings; Run fans the selected analyzers
// out over the shared worker pool and returns the findings in a
// deterministic order (registry order, then by gate, net and detail), so
// reports diff cleanly and tests can assert exact outcomes.
package lint

import (
	"context"
	"fmt"
	"sort"

	"bespoke/internal/cells"
	"bespoke/internal/netlist"
	"bespoke/internal/parallel"
)

// Severity grades a finding.
type Severity uint8

const (
	// Info marks an observation with no correctness impact.
	Info Severity = iota
	// Warning marks a structure that is legal but suspicious (e.g. a
	// driven net that nothing reads).
	Warning
	// Error marks a structural defect: the netlist is malformed or a
	// transform left it in a state no downstream stage should accept.
	Error
)

// String returns "info", "warning" or "error".
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// Finding is one structural defect located by an analyzer.
type Finding struct {
	// Analyzer is the registry name of the analyzer that produced this
	// finding (one of Analyzers()).
	Analyzer string
	// Severity grades the finding.
	Severity Severity
	// Gate is the offending gate, or netlist.None when the finding is
	// not localized to a single gate.
	Gate netlist.GateID
	// Net is a second net involved in the defect (e.g. another member of
	// a combinational cycle), or netlist.None.
	Net netlist.GateID
	// Detail is a human-readable description.
	Detail string
}

// String renders the finding as one report line.
func (f Finding) String() string {
	loc := ""
	if f.Gate != netlist.None {
		loc = fmt.Sprintf(" gate %d", f.Gate)
	}
	if f.Net != netlist.None {
		loc += fmt.Sprintf(" net %d", f.Net)
	}
	return fmt.Sprintf("%s: %s:%s: %s", f.Severity, f.Analyzer, loc, f.Detail)
}

// Config selects and parameterizes the analyzers.
type Config struct {
	// Analyzers names the analyzers to run, in any order; nil runs all
	// of them. Unknown names are an error from Run.
	Analyzers []string
	// KeepAlive lists nets that are observed from outside the netlist —
	// memory macro pins, testbench observation nets — and therefore
	// count as roots for liveness (dead-logic) and as readers (unread-
	// output), exactly like the re-synthesis pass treats them.
	KeepAlive []netlist.GateID
	// Workers bounds the fan-out parallelism; 0 uses GOMAXPROCS.
	Workers int
}

// Report is the outcome of one lint run.
type Report struct {
	// Findings holds every finding, in deterministic order: analyzers in
	// registry order, findings within an analyzer sorted by gate, net
	// and detail.
	Findings []Finding
	// Ran lists the analyzers that executed, in registry order.
	Ran []string
	// NumGates is the number of cells in the linted netlist
	// (netlist.CellCount: every gate but the input ports and constants,
	// so a bespoke core's constant-tied slots do not count). bespoke lint
	// prints it in its header and reports it as JSON num_gates.
	NumGates int
}

// Max returns the highest severity among the findings, or (Info, false)
// when there are none.
func (r *Report) Max() (Severity, bool) {
	max := Info
	for _, f := range r.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max, len(r.Findings) > 0
}

// AtLeast returns the findings with severity >= s, preserving order.
func (r *Report) AtLeast(s Severity) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity >= s {
			out = append(out, f)
		}
	}
	return out
}

// analyzer is one registry entry. run receives the shared read-only
// design tables and must not mutate the netlist.
type analyzer struct {
	name string
	run  func(d *design) []Finding
}

// registry holds the analyzers in canonical report order. Names are the
// stable selection handles used by Config.Analyzers and the -analyzer
// flag of bespoke lint.
var registry = []analyzer{
	{"comb-loop", lintCombLoops},
	{"multi-driven", lintMultiDriven},
	{"floating-input", lintFloatingInputs},
	{"dead-logic", lintDeadLogic},
	{"unread-output", lintUnreadOutputs},
	{"cell-lib", lintCellLib},
	{"const-residue", lintConstResidue},
	{"x-source", lintXSources},
}

// Analyzers returns the registry names in canonical order.
func Analyzers() []string {
	names := make([]string, len(registry))
	for i, a := range registry {
		names[i] = a.name
	}
	return names
}

// design is the immutable view shared by all analyzers of one run. The
// fanout table is precomputed here (netlist.Fanout caches lazily and is
// not safe to build concurrently) and out-of-range pins are excluded
// from it, so analyzers index it without re-validating.
type design struct {
	n         *netlist.Netlist
	fanout    [][]netlist.GateID
	output    []bool // gate drives a primary output port
	keepAlive []bool // gate is externally observed (Config.KeepAlive)
	lib       *cells.Library
}

// valid reports whether id is a usable gate index in d.
func (d *design) valid(id netlist.GateID) bool {
	return id >= 0 && int(id) < len(d.n.Gates)
}

func newDesign(n *netlist.Netlist, cfg *Config) *design {
	d := &design{
		n:         n,
		fanout:    make([][]netlist.GateID, len(n.Gates)),
		output:    make([]bool, len(n.Gates)),
		keepAlive: make([]bool, len(n.Gates)),
		lib:       cells.TSMC65(),
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		ni := g.Kind.NumInputs()
		for p := 0; p < ni; p++ {
			if in := g.In[p]; in != netlist.None && d.valid(in) {
				d.fanout[in] = append(d.fanout[in], netlist.GateID(i))
			}
		}
	}
	for _, o := range n.Outputs {
		if d.valid(o.Gate) {
			d.output[o.Gate] = true
		}
	}
	for _, k := range cfg.KeepAlive {
		if d.valid(k) {
			d.keepAlive[k] = true
		}
	}
	return d
}

// Run executes the selected analyzers over n and returns their combined
// report. Analyzers are independent and fan out over the shared worker
// pool; the report is assembled sequentially in registry order, so the
// result is deterministic regardless of scheduling. The context cancels
// the fan-out between analyzers.
func Run(ctx context.Context, n *netlist.Netlist, cfg Config) (*Report, error) {
	selected, err := selectAnalyzers(cfg.Analyzers)
	if err != nil {
		return nil, err
	}
	d := newDesign(n, &cfg)
	results := make([][]Finding, len(selected))
	perr := parallel.ForEach(ctx, cfg.Workers, len(selected), func(i int) error {
		fs := selected[i].run(d)
		sort.Slice(fs, func(a, b int) bool {
			if fs[a].Gate != fs[b].Gate {
				return fs[a].Gate < fs[b].Gate
			}
			if fs[a].Net != fs[b].Net {
				return fs[a].Net < fs[b].Net
			}
			return fs[a].Detail < fs[b].Detail
		})
		results[i] = fs
		return nil
	})
	if perr != nil {
		return nil, perr
	}
	rep := &Report{NumGates: n.CellCount()}
	for i, a := range selected {
		rep.Ran = append(rep.Ran, a.name)
		rep.Findings = append(rep.Findings, results[i]...)
	}
	return rep, nil
}

// selectAnalyzers resolves names against the registry, preserving
// registry order and rejecting unknown or duplicate names.
func selectAnalyzers(names []string) ([]analyzer, error) {
	if names == nil {
		return registry, nil
	}
	want := make(map[string]bool, len(names))
	for _, name := range names {
		found := false
		for _, a := range registry {
			if a.name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %v)", name, Analyzers())
		}
		if want[name] {
			return nil, fmt.Errorf("lint: analyzer %q selected twice", name)
		}
		want[name] = true
	}
	var out []analyzer
	for _, a := range registry {
		if want[a.name] {
			out = append(out, a)
		}
	}
	return out, nil
}
