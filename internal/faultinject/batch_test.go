package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/bitsim"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/parallel"
)

// scalarCampaign is the one-run-per-fault oracle the bit-parallel engine
// is checked against: every fault runs alone on the scalar simulator
// (internal/sim) through injectOne, each on a private clone of the
// design, and the outcomes fold into a report exactly as runCampaign
// folds the batched ones.
func scalarCampaign(t *testing.T, c *cpu.Core, prog *asm.Program, w *core.Workload, faults []Fault, opts Options) *Report {
	t.Helper()
	ctx := context.Background()
	g, err := GoldenRun(ctx, c, prog, w)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make([]*Result, len(faults))
	err = parallel.ForEach(ctx, opts.Workers, len(faults), func(i int) error {
		res, err := injectOne(ctx, c.Clone(), prog, w, g, faults[i])
		if err != nil {
			return err
		}
		outcomes[i] = &res
		return nil
	})
	if err != nil {
		t.Fatalf("scalar oracle: %v", err)
	}
	return fold(outcomes)
}

// injectOne runs one faulty execution on a private clone and classifies
// it. Fault-induced failures (hangs, X-poisoned state) become divergent
// outcomes; context errors abort the campaign.
func injectOne(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, g *Golden, f Fault) (Result, error) {
	var hook func(h *cpu.Harness)
	latched := false
	switch {
	case f.Pulse:
		// Validate the site up front: the hook runs mid-simulation and
		// has no error path.
		if int(f.Gate) < 0 || int(f.Gate) >= len(c.N.Gates) {
			return Result{}, fmt.Errorf("faultinject: gate %d out of range", f.Gate)
		}
		if k := c.N.Gates[f.Gate].Kind; k.IsSeq() || k.NumInputs() == 0 {
			return Result{}, fmt.Errorf("faultinject: gate %d (%s) is not a combinational SET site", f.Gate, k)
		}
		var before, after []logic.V
		hook = func(h *cpu.Harness) {
			if h.Cycles != f.Cycle {
				return
			}
			// Settle the fault-free cycle, snapshot the D pins, strike,
			// and resettle: any D-pin difference means the glitch was
			// wide enough to be latched at the coming edge.
			h.Sim.Settle()
			before = h.Sim.DffDSnapshotInto(before)
			if _, err := h.Sim.InjectPulse(f.Gate); err != nil {
				return // unreachable: the site was validated above
			}
			h.Sim.Settle()
			after = h.Sim.DffDSnapshotInto(after)
			for i := range before {
				if before[i] != after[i] {
					latched = true
					break
				}
			}
		}
	case f.Transient:
		hook = func(h *cpu.Harness) {
			if h.Cycles != f.Cycle {
				return
			}
			flip := logic.One
			if h.Sim.Val[f.Gate] == logic.One {
				flip = logic.Zero
			}
			h.Sim.ForceDff(f.Gate, flip)
		}
	default:
		restore, err := stuckAt(c.N, f.Gate, f.StuckAt)
		if err != nil {
			return Result{}, err
		}
		defer restore()
	}
	bw := core.Workload{MaxCycles: g.hangBound()}
	if w != nil {
		bw.RAM, bw.P1, bw.IRQ = w.RAM, w.P1, w.IRQ
	}
	tr, err := core.RunWorkloadHooked(ctx, c, prog, &bw, hook)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, fmt.Errorf("faultinject: campaign aborted: %w", cerr)
		}
		var fe *core.FlowError
		detail := err.Error()
		if errors.As(err, &fe) {
			detail = fe.Err.Error()
		}
		return Result{Fault: f, Outcome: Hang, Detail: truncate(detail)}, nil
	}
	if d := bitsim.DiffStreams(g.Out, tr.Out); d != "" {
		return Result{Fault: f, Outcome: SDC, Detail: d}, nil
	}
	if tr.Cycles != g.Cycles {
		return Result{Fault: f, Outcome: SDC,
			Detail: fmt.Sprintf("halted at cycle %d, golden %d", tr.Cycles, g.Cycles)}, nil
	}
	if latched {
		return Result{Fault: f, Outcome: Latched,
			Detail: "corrupted flip-flop state at the strike edge, architecturally silent"}, nil
	}
	return Result{Fault: f, Outcome: Masked}, nil
}

// stuckAt ties gate g's output to v in place (the same transformation
// cut.Apply performs) and returns a closure restoring the original gate.
func stuckAt(n *netlist.Netlist, g netlist.GateID, v logic.V) (restore func(), err error) {
	if int(g) < 0 || int(g) >= len(n.Gates) {
		return nil, fmt.Errorf("faultinject: gate %d out of range", g)
	}
	saved := n.Gates[g]
	switch saved.Kind {
	case netlist.Input, netlist.Const0, netlist.Const1:
		return nil, fmt.Errorf("faultinject: gate %d (%s) is not a fault site", g, saved.Kind)
	}
	k := netlist.Const0
	if v == logic.One {
		k = netlist.Const1
	}
	n.Gates[g].Kind = k
	n.Gates[g].In = [3]netlist.GateID{netlist.None, netlist.None, netlist.None}
	n.InvalidateDerived()
	return func() {
		n.Gates[g] = saved
		n.InvalidateDerived()
	}, nil
}

// TestBatchedMatchesScalarOutcomes is the engine-equality oracle: a
// mixed campaign of stuck-ats, SEUs and SETs must classify every fault
// identically on the bit-parallel engine and the one-run-per-fault
// scalar oracle — same outcome, same detail, same order.
func TestBatchedMatchesScalarOutcomes(t *testing.T) {
	res, prog, w := multSetup(t)
	c := cpu.Build()
	g, err := GoldenRun(context.Background(), c, prog, w)
	if err != nil {
		t.Fatal(err)
	}

	// Build a mixed fault list that crosses one batch boundary and is
	// known to contain divergent members (opposite constants, plus
	// random SEU/SET strikes inside the golden run's span).
	var faults []Fault
	for _, f := range sample(CutFaults(c.N, res, false), 30, 3) {
		faults = append(faults, f)
	}
	var dffs, sites []netlist.GateID
	for i := range c.N.Gates {
		k := c.N.Gates[i].Kind
		switch {
		case k == netlist.Dff:
			dffs = append(dffs, netlist.GateID(i))
		case !k.IsSeq() && k.NumInputs() > 0:
			sites = append(sites, netlist.GateID(i))
		}
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 25; i++ {
		faults = append(faults, Fault{
			Gate:      dffs[r.Intn(len(dffs))],
			Transient: true,
			Cycle:     uint64(r.Int63n(int64(g.Cycles))),
		})
	}
	for i := 0; i < 25; i++ {
		faults = append(faults, Fault{
			Gate:  sites[r.Intn(len(sites))],
			Pulse: true,
			Cycle: uint64(r.Int63n(int64(g.Cycles))),
		})
	}
	if len(faults) <= faultLanes {
		t.Fatalf("fault list (%d) does not cross a batch boundary", len(faults))
	}

	batched, err := Campaign(context.Background(), c, prog, w, faults, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	scalar := scalarCampaign(t, c, prog, w, faults, Options{Seed: 5})

	if batched.Injected != len(faults) {
		t.Fatalf("injected %d batched, want %d", batched.Injected, len(faults))
	}
	sameOutcomes(t, batched, scalar)
	if want := (len(faults) + faultLanes - 1) / faultLanes; batched.Batches != want {
		t.Fatalf("batched built %d instances for %d faults, want %d", batched.Batches, len(faults), want)
	}
	if batched.Elapsed <= 0 {
		t.Fatalf("elapsed not recorded: %v", batched.Elapsed)
	}
}

// sameOutcomes fails t unless the batched and scalar reports classify
// every fault identically: same faults in the same order, same outcomes
// and tallies, same details wherever the outcome is engine-independent,
// and the same diverged list.
func sameOutcomes(t *testing.T, batched, scalar *Report) {
	t.Helper()
	if batched.Injected != scalar.Injected {
		t.Fatalf("injected %d batched vs %d scalar", batched.Injected, scalar.Injected)
	}
	for i := range scalar.Results {
		b, s := batched.Results[i], scalar.Results[i]
		if b.Fault != s.Fault {
			t.Fatalf("result %d: fault order diverged: %v vs %v", i, b.Fault, s.Fault)
		}
		if b.Outcome != s.Outcome {
			t.Errorf("fault %v: batched %v (%s), scalar %v (%s)",
				s.Fault, b.Outcome, b.Detail, s.Outcome, s.Detail)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if batched.Masked != scalar.Masked || batched.Latched != scalar.Latched ||
		batched.SDCs != scalar.SDCs || batched.Hangs != scalar.Hangs {
		t.Fatalf("tallies diverged: batched %+v scalar %+v", *batched, *scalar)
	}
	// SDC and halted-run details are engine-independent and must agree
	// verbatim; Hang details come from different error paths and only the
	// classification is contractual.
	for i := range scalar.Results {
		b, s := batched.Results[i], scalar.Results[i]
		if s.Outcome == SDC || s.Outcome == Latched || s.Outcome == Masked {
			if b.Detail != s.Detail {
				t.Fatalf("fault %v: detail %q batched vs %q scalar", s.Fault, b.Detail, s.Detail)
			}
		}
	}
	if len(batched.Diverged) != len(scalar.Diverged) {
		t.Fatalf("diverged lists: %d vs %d", len(batched.Diverged), len(scalar.Diverged))
	}
	for i := range scalar.Diverged {
		if batched.Diverged[i].Fault != scalar.Diverged[i].Fault {
			t.Fatalf("diverged order: %v vs %v", batched.Diverged[i].Fault, scalar.Diverged[i].Fault)
		}
	}
}

// TestPoisonedLaneCampaignMatchesScalar runs a campaign in which a
// strike X-poisons a lane — SETs on irq's bespoke design under seed 7's
// interrupt schedule, sampled as the faults benchmark samples them — and
// checks it against the scalar oracle. Once a lane retires, the
// memories ignore it; no outcome may change.
func TestPoisonedLaneCampaignMatchesScalar(t *testing.T) {
	b := bench.IRQ()
	prog, err := b.Prog()
	if err != nil {
		t.Fatal(err)
	}
	w := b.Workload(7)
	res, err := core.Tailor(context.Background(), prog, w, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1, MaxFaults: faultLanes, Seed: 1}
	batched, err := SETCampaign(context.Background(), res.BespokeCore, prog, w, faultLanes, opts)
	if err != nil {
		t.Fatal(err)
	}
	schedule := make([]Fault, len(batched.Results))
	poisoned := 0
	for i, r := range batched.Results {
		schedule[i] = r.Fault
		if r.Outcome == Hang && (strings.Contains(r.Detail, "pc is partially unknown") || strings.Contains(r.Detail, "FSM state is X")) {
			poisoned++
		}
	}
	if poisoned == 0 {
		t.Fatal("no lane retired X-poisoned: the campaign no longer covers the poisoned-lane path")
	}
	sameOutcomes(t, batched, scalarCampaign(t, res.BespokeCore, prog, w, schedule, opts))
}

// TestSEUCampaignBackendEquality runs the public SEU entry point and
// replays its seeded (site, cycle) schedule on the scalar oracle: every
// outcome must be identical.
func TestSEUCampaignBackendEquality(t *testing.T) {
	_, prog, w := multSetup(t)
	n := 80
	if testing.Short() {
		n = 20
	}
	batched, err := SEUCampaign(context.Background(), cpu.Build(), prog, w, n, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(batched.Results) != n {
		t.Fatalf("injected %d of %d SEUs", len(batched.Results), n)
	}
	schedule := make([]Fault, n)
	for i, r := range batched.Results {
		if !r.Fault.Transient {
			t.Fatalf("injection %d is not an SEU: %v", i, r.Fault)
		}
		schedule[i] = r.Fault
	}
	scalar := scalarCampaign(t, cpu.Build(), prog, w, schedule, Options{Seed: 11})
	if len(batched.Results) != len(scalar.Results) {
		t.Fatalf("result counts: %d vs %d", len(batched.Results), len(scalar.Results))
	}
	for i := range scalar.Results {
		b, s := batched.Results[i], scalar.Results[i]
		if b.Fault != s.Fault || b.Outcome != s.Outcome {
			t.Fatalf("injection %d: batched %v=%v, scalar %v=%v", i, b.Fault, b.Outcome, s.Fault, s.Outcome)
		}
	}
}

// TestSampleDeterministicUnderTies is the order-stability regression:
// a candidate list with many faults per gate (as SEU/SET schedules
// produce) must sample to the same schedule on every call, in the total
// fault order — the old gate-only unstable sort left tie order to the
// sort algorithm.
func TestSampleDeterministicUnderTies(t *testing.T) {
	var faults []Fault
	for gate := 0; gate < 5; gate++ {
		for cyc := 0; cyc < 40; cyc++ {
			faults = append(faults, Fault{Gate: netlist.GateID(gate), Transient: true, Cycle: uint64(cyc)})
		}
	}
	first := sample(append([]Fault(nil), faults...), 60, 17)
	for trial := 0; trial < 50; trial++ {
		got := sample(append([]Fault(nil), faults...), 60, 17)
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("trial %d: sample order changed:\n%v\nvs\n%v", trial, got, first)
		}
	}
	for i := 1; i < len(first); i++ {
		if faultLess(first[i], first[i-1]) {
			t.Fatalf("sample %d out of order: %v before %v", i, first[i-1], first[i])
		}
	}
	seen := map[Fault]bool{}
	for _, f := range first {
		if seen[f] {
			t.Fatalf("duplicate fault sampled: %v", f)
		}
		seen[f] = true
	}
}

// TestBatchedCampaignMidCancel cancels a batched campaign mid-flight:
// it must stop promptly with the campaign-abort error and report no
// partial results. Run under -race this also exercises the batch
// workers' shared-slice handoff.
func TestBatchedCampaignMidCancel(t *testing.T) {
	_, prog, w := multSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := SEUCampaign(ctx, cpu.Build(), prog, w, 1000, Options{Seed: 3, Workers: 2})
	if err == nil {
		t.Skip("campaign finished before cancellation") // tiny machine, huge CPU
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestBatchedGoldenLaneGuard corrupts the golden reference so the guard
// lane cannot match: the batched backend must refuse the whole campaign
// rather than classify faults against a wrong baseline.
func TestBatchedGoldenLaneGuard(t *testing.T) {
	_, prog, w := multSetup(t)
	c := cpu.Build()
	g, err := GoldenRun(context.Background(), c, prog, w)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Golden{Out: append([]uint16(nil), g.Out...), Cycles: g.Cycles + 1}
	var dff netlist.GateID
	for i := range c.N.Gates {
		if c.N.Gates[i].Kind == netlist.Dff {
			dff = netlist.GateID(i)
			break
		}
	}
	faults := []Fault{{Gate: dff, Transient: true, Cycle: 1}}
	rep, err := runCampaign(context.Background(), c, prog, w, bad, faults, Options{})
	if err == nil {
		t.Fatalf("corrupted golden accepted; report %+v", rep)
	}
}

// TestBatchedStuckAtXMatchesScalar: the scalar rewrite maps a stuck-at-X
// request to Const0; the batched engine must do the same rather than
// reject it.
func TestBatchedStuckAtXMatchesScalar(t *testing.T) {
	res, prog, w := multSetup(t)
	c := cpu.Build()
	claimed := CutFaults(c.N, res, true)
	if len(claimed) == 0 {
		t.Skip("no cut faults")
	}
	f := claimed[0]
	f.StuckAt = logic.X
	rep, err := Campaign(context.Background(), c, prog, w, []Fault{f}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scalar := scalarCampaign(t, c, prog, w, []Fault{f}, Options{})
	if rep.Injected != 1 || scalar.Injected != 1 {
		t.Fatalf("injected %d batched, %d scalar", rep.Injected, scalar.Injected)
	}
	if b, s := rep.Results[0], scalar.Results[0]; b.Outcome != s.Outcome || b.Detail != s.Detail {
		t.Fatalf("stuck-at-X: batched %v (%s), scalar %v (%s)", b.Outcome, b.Detail, s.Outcome, s.Detail)
	}
}
