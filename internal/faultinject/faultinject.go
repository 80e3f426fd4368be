// Package faultinject is a gate-level fault-injection engine for the
// bespoke-processor flow. It serves two purposes from the paper's
// evaluation narrative:
//
//  1. Cut validation (Section 5.1 strengthened): every gate the activity
//     analysis proved untoggleable is forced stuck at its claimed
//     constant; a correct analysis makes every such run bit-identical to
//     the fault-free golden run. Forcing the opposite constant on the
//     same sites shows the campaign has teeth: constants feeding
//     exercised logic visibly diverge.
//  2. Vulnerability characterization: randomized single-event-upset
//     (SEU) campaigns flip state bits mid-run on the baseline and the
//     bespoke design. The bespoke core has fewer fault sites (fewer
//     cells, fewer flip-flops), so the same particle-strike model has
//     fewer places to land - a robustness side benefit of tailoring.
//  3. Resilience comparison: randomized single-event-transient (SET)
//     campaigns pulse combinational gate outputs mid-cycle, let the
//     glitch propagate to the flip-flop D pins, and classify each
//     strike as masked, latched-but-silent, or architecturally
//     visible. Run with the same seed on the baseline and the bespoke
//     design, ModuleMap folds each campaign into a per-module
//     vulnerability map; `bespoke faults` gates the bespoke design's
//     visible fraction on a budget.
//
// Campaigns compare every faulty run against a golden reference (the ISA
// model's output stream, cross-checked against a clean gate-level run)
// and fan out across a worker pool in 64-lane internal/bitsim batches:
// 63 faulty worlds plus a fault-free guard lane per simulator pass. The
// caller's context bounds the whole campaign.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/bitsim"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/isasim"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/parallel"
	"bespoke/internal/symexec"
)

// Fault is one injection: a permanent stuck-at on a gate output, a
// transient bit flip (SEU) in a flip-flop at a given cycle, or a
// transient pulse (SET) on a combinational gate output at a given cycle.
type Fault struct {
	// Gate is the fault site.
	Gate netlist.GateID
	// StuckAt is the forced output value of a permanent fault.
	StuckAt logic.V
	// Transient marks an SEU: the flip-flop's state is inverted once,
	// at cycle Cycle, instead of being tied down for the whole run.
	Transient bool
	// Pulse marks an SET: the combinational gate's settled output is
	// inverted mid-cycle at Cycle, propagates to the flip-flop D pins,
	// and expires at the following clock edge.
	Pulse bool
	// Cycle is the SEU/SET strike time.
	Cycle uint64
}

func (f Fault) String() string {
	switch {
	case f.Pulse:
		return fmt.Sprintf("set(gate %d @ cycle %d)", f.Gate, f.Cycle)
	case f.Transient:
		return fmt.Sprintf("seu(dff %d @ cycle %d)", f.Gate, f.Cycle)
	}
	return fmt.Sprintf("stuck-at-%s(gate %d)", f.StuckAt, f.Gate)
}

// Outcome classifies one faulty run against the golden reference.
type Outcome int

const (
	// Masked: the run was bit-identical to the golden run (same output
	// stream, same cycle count). The fault had no architectural effect.
	Masked Outcome = iota
	// Latched: the injected transient reached at least one flip-flop D
	// pin at the strike edge (state was corrupted), but the run's
	// architectural outcome still matched the golden reference. Only SET
	// campaigns produce this outcome; for other fault kinds a silent
	// strike reports Masked.
	Latched
	// SDC (silent data corruption): the run halted but produced a
	// different output stream or cycle count.
	SDC
	// Hang: the run never reached the halt convention within the cycle
	// bound, or the simulation failed outright.
	Hang
)

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case Latched:
		return "latched-silent"
	case SDC:
		return "sdc"
	case Hang:
		return "hang"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Result is the outcome of one injection.
type Result struct {
	Fault   Fault
	Outcome Outcome
	// Detail describes the divergence (first differing output word,
	// cycle counts, the run error) for non-masked outcomes.
	Detail string
}

// Report summarizes one campaign.
type Report struct {
	// Sites is the number of candidate fault sites in the design (before
	// any MaxFaults sampling).
	Sites int
	// Injected is the number of faults actually run.
	Injected int
	// Masked, Latched, SDCs and Hangs partition the injected faults by
	// outcome (Latched is nonzero only for SET campaigns).
	Masked  int
	Latched int
	SDCs    int
	Hangs   int
	// Diverged holds every architecturally visible result (SDCs and
	// hangs), ordered by gate then cycle.
	Diverged []Result
	// Results holds every completed injection in injection order,
	// including masked ones, so callers can aggregate outcomes by fault
	// site (e.g. per-module vulnerability maps).
	Results []Result

	// Batches is the number of simulator instances the campaign built:
	// ceil(faults/63), each running 63 faulty worlds plus a golden guard
	// lane.
	Batches int
	// Elapsed is the injection phase's wall-clock time (the golden
	// reference run is excluded).
	Elapsed time.Duration
}

// Divergent is the number of injections whose behavior differed from the
// golden run - the campaign's mismatch count.
func (r *Report) Divergent() int { return r.SDCs + r.Hangs }

// Options tunes a campaign.
type Options struct {
	// Workers is the fan-out width (default GOMAXPROCS). Workers share
	// the design read-only; each batch owns its simulator instance.
	Workers int
	// MaxFaults caps the number of injections; when the candidate list
	// is larger, a deterministic sample (driven by Seed) is taken.
	// 0 injects every candidate.
	MaxFaults int
	// Seed drives sampling and the SEU strike schedule.
	Seed uint64
}

// Golden is the fault-free reference behavior of one workload.
type Golden struct {
	// Out is the observable output stream (cross-checked between the
	// ISA model and a clean gate-level run).
	Out []uint16
	// Cycles is the clean gate-level run's cycle count.
	Cycles uint64
}

// hangBound is the cycle budget of each faulty run: twice the golden
// run's cycles plus slack, so a run a fault hangs terminates.
func (g *Golden) hangBound() uint64 { return 2*g.Cycles + 1024 }

// GoldenRun establishes the reference: the workload runs on the golden
// ISA model and on a clean clone of the gate-level design, and the two
// output streams must already agree (otherwise the design is broken
// independent of any fault, and the campaign refuses to start).
func GoldenRun(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload) (*Golden, error) {
	m := isasim.New(prog.Bytes, prog.Origin)
	if err := bench.RunISAWorkload(m, w); err != nil {
		return nil, fmt.Errorf("faultinject: golden ISA run: %w", err)
	}
	tr, err := core.RunWorkload(ctx, c.Clone(), prog, w)
	if err != nil {
		return nil, fmt.Errorf("faultinject: golden gate-level run: %w", err)
	}
	if d := bitsim.DiffStreams(m.Out, tr.Out); d != "" {
		return nil, fmt.Errorf("faultinject: golden models disagree before any fault: %s", d)
	}
	return &Golden{Out: tr.Out, Cycles: tr.Cycles}, nil
}

// Sites counts a design's fault sites: real combinational/sequential
// cells (stuck-at targets) and flip-flops (SEU targets). Constants and
// primary inputs occupy no silicon and cannot fault.
func Sites(n *netlist.Netlist) (cells, dffs int) {
	for i := range n.Gates {
		k := n.Gates[i].Kind
		if k.NumInputs() == 0 && !k.IsSeq() {
			continue
		}
		cells++
		if k == netlist.Dff {
			dffs++
		}
	}
	return cells, dffs
}

// CutFaults lists the stuck-at faults for an analysis's cut set: one
// fault per gate the analysis declared untoggleable with a concrete
// constant (the gates cut.Apply would remove). claimed selects the
// analysis's constant; !claimed forces the opposite value.
func CutFaults(n *netlist.Netlist, res *symexec.Result, claimed bool) []Fault {
	var faults []Fault
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		if res.Toggled[i] || !res.ConstVal[i].Known() {
			continue
		}
		v := res.ConstVal[i]
		if !claimed {
			if v == logic.Zero {
				v = logic.One
			} else {
				v = logic.Zero
			}
		}
		faults = append(faults, Fault{Gate: netlist.GateID(i), StuckAt: v})
	}
	return faults
}

// StuckAtClaimed injects every cut gate stuck at its analysis-claimed
// constant. On a correct analysis the report's Divergent() is zero: tying
// a never-toggling gate to the value it already holds cannot change the
// machine.
func StuckAtClaimed(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, res *symexec.Result, opts Options) (*Report, error) {
	return stuckAtCampaign(ctx, c, prog, w, res, true, opts)
}

// StuckAtOpposite injects every cut gate stuck at the opposite of its
// claimed constant. Divergence here is expected wherever the constant
// feeds exercised logic; it demonstrates the campaign can detect a wrong
// constant at all.
func StuckAtOpposite(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, res *symexec.Result, opts Options) (*Report, error) {
	return stuckAtCampaign(ctx, c, prog, w, res, false, opts)
}

func stuckAtCampaign(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, res *symexec.Result, claimed bool, opts Options) (*Report, error) {
	if len(res.Toggled) != len(c.N.Gates) {
		return nil, fmt.Errorf("faultinject: analysis covers %d gates, design has %d", len(res.Toggled), len(c.N.Gates))
	}
	g, err := GoldenRun(ctx, c, prog, w)
	if err != nil {
		return nil, err
	}
	faults := CutFaults(c.N, res, claimed)
	sites := len(faults)
	faults = sample(faults, opts.MaxFaults, opts.Seed)
	rep, err := runCampaign(ctx, c, prog, w, g, faults, opts)
	if err != nil {
		return nil, err
	}
	rep.Sites = sites
	return rep, nil
}

// SEUCampaign injects n transient bit flips at random (flip-flop, cycle)
// pairs drawn deterministically from opts.Seed, with strike cycles spread
// over the golden run's duration. A negative n is an error.
func SEUCampaign(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, n int, opts Options) (*Report, error) {
	if n < 0 {
		return nil, fmt.Errorf("faultinject: SEU campaign of %d injections; the count cannot be negative", n)
	}
	g, err := GoldenRun(ctx, c, prog, w)
	if err != nil {
		return nil, err
	}
	var dffs []netlist.GateID
	for i := range c.N.Gates {
		if c.N.Gates[i].Kind == netlist.Dff {
			dffs = append(dffs, netlist.GateID(i))
		}
	}
	if len(dffs) == 0 {
		return nil, fmt.Errorf("faultinject: design has no flip-flops to strike")
	}
	span := g.Cycles
	if span == 0 {
		span = 1
	}
	r := rng(opts.Seed)
	faults := make([]Fault, n)
	for i := range faults {
		faults[i] = Fault{
			Gate:      dffs[r.next()%uint64(len(dffs))],
			Transient: true,
			Cycle:     r.next() % span,
		}
	}
	rep, err := runCampaign(ctx, c, prog, w, g, faults, opts)
	if err != nil {
		return nil, err
	}
	rep.Sites = len(dffs)
	return rep, nil
}

// SETCampaign injects n single-event transients at random
// (combinational gate, cycle) pairs drawn deterministically from
// opts.Seed, with strike cycles spread over the golden run's duration.
// Each strike inverts the gate's settled output mid-cycle; the glitch
// propagates to the flip-flop D pins and expires at the next clock
// edge. Outcomes distinguish latched-but-silent strikes from
// architecturally visible ones. A negative n is an error.
func SETCampaign(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, n int, opts Options) (*Report, error) {
	if n < 0 {
		return nil, fmt.Errorf("faultinject: SET campaign of %d injections; the count cannot be negative", n)
	}
	g, err := GoldenRun(ctx, c, prog, w)
	if err != nil {
		return nil, err
	}
	sites := combSites(c.N)
	if len(sites) == 0 {
		return nil, fmt.Errorf("faultinject: design has no combinational gates to strike")
	}
	span := g.Cycles
	if span == 0 {
		span = 1
	}
	r := rng(opts.Seed)
	faults := make([]Fault, n)
	for i := range faults {
		faults[i] = Fault{
			Gate:  sites[r.next()%uint64(len(sites))],
			Pulse: true,
			Cycle: r.next() % span,
		}
	}
	rep, err := runCampaign(ctx, c, prog, w, g, faults, opts)
	if err != nil {
		return nil, err
	}
	rep.Sites = len(sites)
	return rep, nil
}

// combSites lists the design's combinational SET sites: gates with at
// least one input that are not sequential (inputs, constants and
// flip-flops cannot glitch combinationally).
func combSites(n *netlist.Netlist) []netlist.GateID {
	var sites []netlist.GateID
	for i := range n.Gates {
		k := n.Gates[i].Kind
		if k.IsSeq() || k.NumInputs() == 0 {
			continue
		}
		sites = append(sites, netlist.GateID(i))
	}
	return sites
}

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

// ModuleMap folds a SET campaign's per-fault results into a per-module
// vulnerability map, keyed by top-level builder module name (gates in
// the root module map to "glue"), sorted by name. Site populations come
// from the design; outcome counts from the report's Results.
func ModuleMap(n *netlist.Netlist, rep *Report) []ModuleVuln {
	byMod := map[string]*ModuleVuln{}
	row := func(name string) *ModuleVuln {
		m := byMod[name]
		if m == nil {
			m = &ModuleVuln{Module: name}
			byMod[name] = m
		}
		return m
	}
	for name, gates := range n.GatesByModule() {
		sites := 0
		for _, id := range gates {
			if k := n.Gates[id].Kind; !k.IsSeq() && k.NumInputs() > 0 {
				sites++
			}
		}
		if sites > 0 {
			row(name).Sites = sites
		}
	}
	for _, res := range rep.Results {
		m := row(moduleOfTop(n, res.Fault.Gate))
		m.Injected++
		switch res.Outcome {
		case Masked:
			m.Masked++
		case Latched:
			m.Latched++
		default:
			m.Visible++
		}
	}
	names := make([]string, 0, len(byMod))
	for name := range byMod {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ModuleVuln, len(names))
	for i, name := range names {
		out[i] = *byMod[name]
	}
	return out
}

// moduleOfTop maps a gate to its top-level module name with the same
// convention as netlist.GatesByModule: the first path component, or
// "glue" for the root module.
func moduleOfTop(n *netlist.Netlist, id netlist.GateID) string {
	path := n.ModuleOf(id)
	if path == "" {
		return "glue"
	}
	for i := 0; i < len(path); i++ {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return path
}

// Campaign runs an explicit fault list against the design: it
// establishes the golden reference, fans the faults out, and reports the
// outcomes. The targeted campaigns above are built on it; callers with
// hand-picked fault sites (regression tests, triage) use it directly.
func Campaign(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, faults []Fault, opts Options) (*Report, error) {
	g, err := GoldenRun(ctx, c, prog, w)
	if err != nil {
		return nil, err
	}
	rep, err := runCampaign(ctx, c, prog, w, g, faults, opts)
	if err != nil {
		return nil, err
	}
	rep.Sites = len(faults)
	return rep, nil
}

// runCampaign fans the fault list out in chunks of 63, one bit-parallel
// simulator instance per chunk (63 faulty worlds plus a golden guard
// lane), over the shared worker pool, and aggregates the per-index
// outcomes sequentially after the pool drains, so the report is
// deterministic regardless of worker scheduling.
func runCampaign(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, g *Golden, faults []Fault, opts Options) (*Report, error) {
	start := time.Now()
	outcomes := make([]*Result, len(faults))
	nBatch := (len(faults) + faultLanes - 1) / faultLanes
	perr := parallel.ForEach(ctx, opts.Workers, nBatch, func(bi int) error {
		lo := bi * faultLanes
		hi := min(lo+faultLanes, len(faults))
		return injectBatch(ctx, c, prog, w, g, faults[lo:hi], outcomes[lo:hi], opts)
	})
	rep := fold(outcomes)
	rep.Batches = nBatch
	if perr != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(perr, cerr) {
			return nil, fmt.Errorf("faultinject: campaign aborted after %d of %d faults: %w",
				rep.Injected, len(faults), cerr)
		}
		return nil, perr
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// fold tallies per-fault outcomes, in fault-list order, into a report.
// Nil outcomes (abandoned after an error or cancellation) are skipped.
func fold(outcomes []*Result) *Report {
	rep := &Report{}
	for _, o := range outcomes {
		if o == nil {
			continue
		}
		rep.Injected++
		rep.Results = append(rep.Results, *o)
		switch o.Outcome {
		case Masked:
			rep.Masked++
		case Latched:
			rep.Latched++
		case SDC:
			rep.SDCs++
			rep.Diverged = append(rep.Diverged, *o)
		case Hang:
			rep.Hangs++
			rep.Diverged = append(rep.Diverged, *o)
		}
	}
	sort.Slice(rep.Diverged, func(i, j int) bool {
		return faultLess(rep.Diverged[i].Fault, rep.Diverged[j].Fault)
	})
	return rep
}

// faultLess is a total order on faults (site, strike time, kind,
// value): two faults compare equal only when they are identical, so any
// sort keyed on it is deterministic even with an unstable algorithm.
func faultLess(a, b Fault) bool {
	if a.Gate != b.Gate {
		return a.Gate < b.Gate
	}
	if a.Cycle != b.Cycle {
		return a.Cycle < b.Cycle
	}
	if a.Pulse != b.Pulse {
		return b.Pulse
	}
	if a.Transient != b.Transient {
		return b.Transient
	}
	return a.StuckAt < b.StuckAt
}

// sample deterministically picks max faults via a seeded Fisher-Yates
// prefix, then re-sorts for stable reporting. max<=0 keeps all. The sort
// uses the total fault order, not just the gate: keying an unstable sort
// on the gate alone left ties (several faults on one site, as SEU/SET
// schedules produce) in an algorithm-dependent order, so one seed could
// yield differently ordered — and under a re-sample, differently
// chosen — injection schedules between backends or Go releases.
func sample(faults []Fault, max int, seed uint64) []Fault {
	if max <= 0 || len(faults) <= max {
		return faults
	}
	r := rng(seed)
	picked := append([]Fault(nil), faults...)
	for i := 0; i < max; i++ {
		j := i + int(r.next()%uint64(len(picked)-i))
		picked[i], picked[j] = picked[j], picked[i]
	}
	picked = picked[:max]
	sort.Slice(picked, func(i, j int) bool { return faultLess(picked[i], picked[j]) })
	return picked
}

// truncate bounds a divergence detail string for reporting.
func truncate(s string) string {
	if len(s) > 160 {
		return s[:157] + "..."
	}
	return s
}

// rng is a splitmix64 generator for deterministic campaigns.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
