package faultinject

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/cut"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
	"bespoke/internal/verify"
)

// The campaigns share one analysis of the mult benchmark: it is small
// enough for -short runs but exercises RAM inputs and the full datapath.
var multOnce struct {
	sync.Once
	res  *symexec.Result
	prog *asm.Program
	w    *core.Workload
	err  error
}

func multSetup(t *testing.T) (*symexec.Result, *asm.Program, *core.Workload) {
	t.Helper()
	multOnce.Do(func() {
		b := bench.ByName("mult")
		multOnce.prog, multOnce.err = b.Prog()
		if multOnce.err != nil {
			return
		}
		multOnce.w = b.Workload(1)
		multOnce.res, _, multOnce.err = core.Analyze(context.Background(), multOnce.prog, symexec.Options{})
	})
	if multOnce.err != nil {
		t.Fatalf("mult setup: %v", multOnce.err)
	}
	return multOnce.res, multOnce.prog, multOnce.w
}

// TestStuckAtClaimed is the engine's core soundness check: forcing any
// cut gate to its analysis-claimed constant must be invisible - the
// analysis proved the gate already holds that value on every cycle.
func TestStuckAtClaimed(t *testing.T) {
	res, prog, w := multSetup(t)
	n := 48
	if testing.Short() {
		n = 12
	}
	rep, err := StuckAtClaimed(context.Background(), cpu.Build(), prog, w, res, Options{MaxFaults: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injected == 0 || rep.Sites == 0 {
		t.Fatalf("campaign ran nothing: %+v", rep)
	}
	if rep.Divergent() != 0 {
		t.Fatalf("claimed-constant injection diverged %d times (first: %+v)", rep.Divergent(), rep.Diverged[0])
	}
}

// TestStuckAtOpposite shows the campaign has teeth: the opposite
// constant on exercised logic is architecturally visible.
func TestStuckAtOpposite(t *testing.T) {
	rep := oppositeReport(t)
	if rep.Divergent() == 0 {
		t.Fatalf("no divergence among %d opposite-constant injections; the campaign cannot detect wrong constants", rep.Injected)
	}
	if rep.Divergent() != len(rep.Diverged) {
		t.Fatalf("divergence bookkeeping: %d vs %d", rep.Divergent(), len(rep.Diverged))
	}
}

var oppOnce struct {
	sync.Once
	rep *Report
	err error
}

func oppositeReport(t *testing.T) *Report {
	t.Helper()
	res, prog, w := multSetup(t)
	oppOnce.Do(func() {
		oppOnce.rep, oppOnce.err = StuckAtOpposite(context.Background(), cpu.Build(), prog, w, res,
			Options{MaxFaults: 48, Seed: 7})
	})
	if oppOnce.err != nil {
		t.Fatal(oppOnce.err)
	}
	return oppOnce.rep
}

// TestCorruptConstantFlagged hand-corrupts one cut constant and asserts
// both verification prongs notice: the claimed-constant campaign (which
// now injects the wrong value at that site) and verify.XVerify on a
// design cut with the corrupted analysis.
func TestCorruptConstantFlagged(t *testing.T) {
	res, prog, w := multSetup(t)
	opp := oppositeReport(t)
	if len(opp.Diverged) == 0 {
		t.Skip("no divergent opposite site found to corrupt")
	}
	g := opp.Diverged[0].Fault.Gate

	bad := &symexec.Result{
		Toggled:  append([]bool(nil), res.Toggled...),
		ConstVal: append([]logic.V(nil), res.ConstVal...),
	}
	if bad.ConstVal[g] == logic.Zero {
		bad.ConstVal[g] = logic.One
	} else {
		bad.ConstVal[g] = logic.Zero
	}

	// Prong 1: the stuck-at campaign over the corrupted analysis flags
	// the site (CutFaults now emits the wrong constant for gate g).
	var faults []Fault
	for _, f := range CutFaults(cpu.Build().N, bad, true) {
		if f.Gate == g {
			faults = append(faults, f)
		}
	}
	if len(faults) != 1 {
		t.Fatalf("expected one fault for gate %d, got %d", g, len(faults))
	}
	rep, err := Campaign(context.Background(), cpu.Build(), prog, w, faults, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergent() != 1 {
		t.Fatalf("stuck-at campaign did not flag corrupted constant at gate %d: %+v", g, rep)
	}

	// Prong 2: XVerify on a design cut with the corrupted analysis.
	bespoke := cpu.Build()
	if err := bespoke.LoadProgram(prog.Bytes, prog.Origin); err != nil {
		t.Fatal(err)
	}
	if _, err := cut.Apply(bespoke.N, bad.Toggled, bad.ConstVal); err != nil {
		t.Fatal(err)
	}
	if _, err := verify.XVerify(context.Background(), bespoke, res); err == nil {
		t.Fatalf("XVerify accepted a design with a corrupted constant at gate %d", g)
	} else if !strings.Contains(err.Error(), "tied to") {
		t.Fatalf("XVerify failed for an unexpected reason: %v", err)
	}
}

// TestSEUCampaign runs a short transient campaign and checks the
// bookkeeping; SEUs may be masked or fatal, but the report must account
// for every injection.
func TestSEUCampaign(t *testing.T) {
	_, prog, w := multSetup(t)
	n := 24
	if testing.Short() {
		n = 8
	}
	rep, err := SEUCampaign(context.Background(), cpu.Build(), prog, w, n, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injected != n {
		t.Fatalf("injected %d of %d SEUs", rep.Injected, n)
	}
	if rep.Masked+rep.SDCs+rep.Hangs != rep.Injected {
		t.Fatalf("outcomes do not partition injections: %+v", rep)
	}
	if rep.Sites == 0 {
		t.Fatal("no flip-flop fault sites reported")
	}
}

// TestNegativeCampaignSizeIsAnError: an SEU or SET campaign asked for a
// negative number of injections returns an error naming the count, not
// a panic or an empty report.
func TestNegativeCampaignSizeIsAnError(t *testing.T) {
	_, prog, w := multSetup(t)
	for name, campaign := range map[string]func(context.Context, *cpu.Core, *asm.Program, *core.Workload, int, Options) (*Report, error){
		"SEU": SEUCampaign,
		"SET": SETCampaign,
	} {
		rep, err := campaign(context.Background(), cpu.Build(), prog, w, -1, Options{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), name+" campaign of -1 injections") {
			t.Errorf("%s campaign of -1: report %v, error %v; want an error naming the count", name, rep, err)
		}
	}
}

// TestCampaignCancellation: a cancelled context aborts a campaign with
// the context error rather than hanging or finishing.
func TestCampaignCancellation(t *testing.T) {
	res, prog, w := multSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := StuckAtClaimed(ctx, cpu.Build(), prog, w, res, Options{MaxFaults: 8})
	if err == nil {
		t.Fatal("campaign succeeded under a cancelled context")
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("expected a context error, got: %v", err)
	}
}

// TestSETCampaign runs a short combinational transient campaign and
// checks the bookkeeping: every injection is accounted for by exactly
// one of the four outcomes, and Results retains every strike for
// per-module aggregation.
func TestSETCampaign(t *testing.T) {
	rep := setReport(t)
	n := setFaultCount()
	if rep.Injected != n {
		t.Fatalf("injected %d of %d SETs", rep.Injected, n)
	}
	if rep.Masked+rep.Latched+rep.SDCs+rep.Hangs != rep.Injected {
		t.Fatalf("outcomes do not partition injections: %+v", rep)
	}
	if rep.Sites == 0 {
		t.Fatal("no combinational fault sites reported")
	}
	if len(rep.Results) != rep.Injected {
		t.Fatalf("Results holds %d of %d injections", len(rep.Results), rep.Injected)
	}
	for _, res := range rep.Results {
		if !res.Fault.Pulse {
			t.Fatalf("non-SET fault in a SET campaign: %v", res.Fault)
		}
	}
}

var setOnce struct {
	sync.Once
	rep *Report
	err error
}

func setFaultCount() int {
	if testing.Short() {
		return 8
	}
	return 24
}

func setReport(t *testing.T) *Report {
	t.Helper()
	_, prog, w := multSetup(t)
	setOnce.Do(func() {
		setOnce.rep, setOnce.err = SETCampaign(context.Background(), cpu.Build(), prog, w,
			setFaultCount(), Options{Seed: 11})
	})
	if setOnce.err != nil {
		t.Fatal(setOnce.err)
	}
	return setOnce.rep
}

// TestModuleMap folds the SET report into a per-module vulnerability
// map and checks it against the design-level totals.
func TestModuleMap(t *testing.T) {
	rep := setReport(t)
	mm := ModuleMap(cpu.Build().N, rep)
	if len(mm) == 0 {
		t.Fatal("empty module map")
	}
	var sites, injected, masked, latched, visible int
	for i, m := range mm {
		if i > 0 && mm[i-1].Module >= m.Module {
			t.Fatalf("module map not sorted: %q before %q", mm[i-1].Module, m.Module)
		}
		if m.Injected != m.Masked+m.Latched+m.Visible {
			t.Fatalf("module %s outcomes do not partition injections: %+v", m.Module, m)
		}
		sites += m.Sites
		injected += m.Injected
		masked += m.Masked
		latched += m.Latched
		visible += m.Visible
	}
	if sites != rep.Sites {
		t.Fatalf("module sites sum %d, design has %d", sites, rep.Sites)
	}
	if injected != rep.Injected || masked != rep.Masked || latched != rep.Latched {
		t.Fatalf("module totals diverge from report: %d/%d/%d vs %+v", injected, masked, latched, rep)
	}
	if visible != rep.SDCs+rep.Hangs {
		t.Fatalf("module visible sum %d, report has %d", visible, rep.SDCs+rep.Hangs)
	}
}

// TestSETPulseRejectsBadSites: SET faults aimed at flip-flops or
// out-of-range gates, and SEU faults aimed at anything but a flip-flop,
// are campaign errors, not silent no-ops.
func TestSETPulseRejectsBadSites(t *testing.T) {
	_, prog, w := multSetup(t)
	c := cpu.Build()
	dff, comb := netlist.None, netlist.None
	for i := range c.N.Gates {
		switch k := c.N.Gates[i].Kind; {
		case k == netlist.Dff && dff == netlist.None:
			dff = netlist.GateID(i)
		case !k.IsSeq() && k.NumInputs() > 0 && comb == netlist.None:
			comb = netlist.GateID(i)
		}
	}
	for _, f := range []Fault{
		{Gate: dff, Pulse: true},
		{Gate: netlist.GateID(len(c.N.Gates)), Pulse: true},
		{Gate: comb, Transient: true},
		{Gate: c.N.Inputs[0], Transient: true},
		{Gate: netlist.GateID(len(c.N.Gates)), Transient: true},
	} {
		if _, err := Campaign(context.Background(), c, prog, w, []Fault{f}, Options{}); err == nil {
			t.Fatalf("campaign accepted invalid site %v", f)
		}
	}
}

// TestSETCampaignPreCancelled: a context cancelled before the campaign
// starts aborts it with context.Canceled. (Satellite of the resilience
// signoff work: the serving path relies on prompt cancellation.)
func TestSETCampaignPreCancelled(t *testing.T) {
	_, prog, w := multSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SETCampaign(ctx, cpu.Build(), prog, w, 8, Options{Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got: %v", err)
	}
}

// TestSETCampaignMidCancelLeaksNothing cancels a deliberately oversized
// campaign mid-flight and asserts it returns context.Canceled promptly
// and that the worker pool's goroutines drain.
func TestSETCampaignMidCancelLeaksNothing(t *testing.T) {
	_, prog, w := multSetup(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := SETCampaign(ctx, cpu.Build(), prog, w, 4096, Options{Seed: 2})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("expected context.Canceled, got: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not return within 10s of cancellation")
	}

	// The pool tears down asynchronously after ForEach returns;
	// poll briefly for the goroutine count to drop back.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before campaign, %d after cancellation", before, g)
	}
}

// TestTailorGateResilienceSignoff drives the SET resilience comparison
// the way `bespoke faults` runs it: one core.Tailor, then identically
// seeded SET campaigns on the baseline and the bespoke core, each folded
// into a per-module map. Both campaigns must inject every strike on a
// bespoke design with fewer sites, and a seed whose bespoke campaign
// finds visible strikes must leave a worst module (the one a budget
// violation names) with a nonzero visible fraction.
func TestTailorGateResilienceSignoff(t *testing.T) {
	if testing.Short() {
		t.Skip("runs up to a few dozen SET campaigns")
	}
	_, prog, w := multSetup(t)
	res, err := core.Tailor(context.Background(), prog, w, core.Options{})
	if err != nil {
		t.Fatalf("tailor: %v", err)
	}
	compare := func(seed uint64) (base, besp *Report, bespMods []ModuleVuln) {
		t.Helper()
		opts := Options{Seed: seed}
		base, err := SETCampaign(context.Background(), res.BaselineCore, prog, w, 16, opts)
		if err != nil {
			t.Fatalf("baseline design: %v", err)
		}
		besp, err = SETCampaign(context.Background(), res.BespokeCore, prog, w, 16, opts)
		if err != nil {
			t.Fatalf("bespoke design: %v", err)
		}
		return base, besp, ModuleMap(res.BespokeCore.N, besp)
	}

	base, besp, mods := compare(11)
	if besp.Injected != 16 || base.Injected != 16 {
		t.Fatalf("campaign sizes wrong: baseline %d, bespoke %d", base.Injected, besp.Injected)
	}
	if besp.Sites >= base.Sites {
		t.Fatalf("bespoke SET sites %d not below baseline %d", besp.Sites, base.Sites)
	}
	visible := 0
	for _, m := range mods {
		visible += m.Visible
	}
	if visible != besp.Divergent() {
		t.Fatalf("bespoke module map has %d visible strikes, campaign has %d", visible, besp.Divergent())
	}

	// Zero tolerance: sweep seeds until the bespoke campaign finds a
	// visible strike, the case a negative -set-budget rejects.
	for seed := uint64(1); ; seed++ {
		if seed > 32 {
			t.Fatal("no seed in 1..32 produced a visible SET; cannot exercise the fail-closed path")
		}
		_, besp, mods := compare(seed)
		if besp.Divergent() == 0 {
			continue // every strike masked or latched at this seed
		}
		worst := mods[0]
		for _, m := range mods[1:] {
			if m.VisibleFrac() > worst.VisibleFrac() {
				worst = m
			}
		}
		if worst.Module == "" || worst.VisibleFrac() <= 0 {
			t.Fatalf("worst module %q at %v for a campaign with %d visible strikes",
				worst.Module, worst.VisibleFrac(), besp.Divergent())
		}
		break
	}
}

// TestSitesShrink: tailoring must reduce the design's fault sites (the
// robustness side benefit the SEU and SET campaigns quantify).
func TestSitesShrink(t *testing.T) {
	res, prog, _ := multSetup(t)
	baseline := cpu.Build()
	bc, bd := Sites(baseline.N)
	bespoke := baseline.Clone()
	if err := bespoke.LoadProgram(prog.Bytes, prog.Origin); err != nil {
		t.Fatal(err)
	}
	if _, err := cut.Apply(bespoke.N, res.Toggled, res.ConstVal); err != nil {
		t.Fatal(err)
	}
	sc, sd := Sites(bespoke.N)
	if sc >= bc {
		t.Fatalf("bespoke cells %d not below baseline %d", sc, bc)
	}
	if sd > bd {
		t.Fatalf("bespoke dffs %d above baseline %d", sd, bd)
	}
	if bs, ss := len(combSites(baseline.N)), len(combSites(bespoke.N)); ss >= bs {
		t.Fatalf("bespoke SET sites %d not below baseline %d", ss, bs)
	}
}
