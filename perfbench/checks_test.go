package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/equiv"
	"bespoke/internal/faultinject"
	"bespoke/internal/netlist"
)

// tailored returns one program, its ISA golden outputs, and its
// core.Tailor result under zero options.
func tailored(t *testing.T, b *bench.Benchmark) (*program, *core.Result) {
	t.Helper()
	progs, err := loadPrograms(nil, []*bench.Benchmark{b}, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	p := progs[0]
	res, err := core.Tailor(context.Background(), p.prog, p.w, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// A bespoke core with one stitched constant flipped, on a clone, fails
// the tailor output check. Not every constant reaches the outputs on this
// workload, so constants are flipped one at a time, in gate order, until
// one does; the check must reject that one and keep accepting the
// unflipped design.
func TestOutputCheckRejectsFlippedConstant(t *testing.T) {
	ctx := context.Background()
	p, res := tailored(t, bench.Mult())
	if err := checkOutputs(ctx, res, p.prog, p.w, p.golden); err != nil {
		t.Fatalf("correct bespoke core rejected: %v", err)
	}
	flipped := 0
	for g := range res.BespokeCore.N.Gates {
		bad := res.BespokeCore.Clone()
		switch bad.N.Gates[g].Kind {
		case netlist.Const0:
			bad.N.Gates[g].Kind = netlist.Const1
		case netlist.Const1:
			bad.N.Gates[g].Kind = netlist.Const0
		default:
			continue
		}
		bad.N.InvalidateDerived()
		flipped++
		badRes := *res
		badRes.BespokeCore = bad
		if err := checkOutputs(ctx, &badRes, p.prog, p.w, p.golden); err != nil {
			t.Logf("flipping constant gate %d (after %d flips): %v", g, flipped, err)
			return
		}
		if flipped == 200 {
			break
		}
	}
	t.Fatalf("output check accepted all %d bespoke cores with one constant flipped", flipped)
}

// provedResult is a well-formed single-program proof result.
func provedResult() *core.Result {
	return &core.Result{Proofs: []core.ProofResult{{
		Claims: &equiv.Report{ProvedSAT: 10, Assumed: 3},
		Miter:  &equiv.MiterResult{Equivalent: true},
		Induct: &core.InductSummary{},
	}}}
}

func TestProofCheckRejectsRefutedOrInequivalent(t *testing.T) {
	if err := checkProof(provedResult()); err != nil {
		t.Fatalf("sound proof rejected: %v", err)
	}
	refuted := provedResult()
	refuted.Proofs[0].Claims.Refuted = 1
	inequivalent := provedResult()
	inequivalent.Proofs[0].Miter.Equivalent = false
	missing := provedResult()
	missing.Proofs[0].Miter = nil
	for name, res := range map[string]*core.Result{
		"refuted": refuted, "inequivalent": inequivalent, "no miter": missing, "no proofs": {},
	} {
		if err := checkProof(res); err == nil {
			t.Errorf("%s proof accepted", name)
		}
	}
}

func TestClaimedCheckRejectsDivergence(t *testing.T) {
	if err := checkClaimed(&faultinject.Report{Injected: 315, Masked: 315}); err != nil {
		t.Fatalf("clean campaign rejected: %v", err)
	}
	for name, rep := range map[string]*faultinject.Report{
		"sdc":   {Injected: 315, Masked: 314, SDCs: 1},
		"hang":  {Injected: 315, Masked: 314, Hangs: 1},
		"empty": {},
	} {
		if err := checkClaimed(rep); err == nil {
			t.Errorf("%s campaign accepted", name)
		}
	}
}

// The traced replay reproduces core.Tailor's Result, and a replay whose
// Result differs is rejected.
func TestReplayMatchesTailor(t *testing.T) {
	p, want := tailored(t, bench.BinSearch())
	r := newRecorder("tailor", 0)
	got, err := replayTailor(context.Background(), r, p.prog, p.w, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := op{name: p.name, summary: fmt.Sprintf("%+v", summarize(want))}
	if err := sameAs(first, op{name: p.name, summary: fmt.Sprintf("%+v", summarize(got))}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.layerTimes(); err != nil {
		t.Fatal(err)
	}
	if r.counts["layout.calls"] != 4 || r.counts["sim.runs"] != 2 {
		t.Fatalf("replay made %v layout calls and %v workload runs, core.Tailor makes 4 and 2",
			r.counts["layout.calls"], r.counts["sim.runs"])
	}
	got.Bespoke.Power.TotalUW *= 1.000001
	if err := sameAs(first, op{name: p.name, summary: fmt.Sprintf("%+v", summarize(got))}); err == nil {
		t.Fatal("a replay with different power was accepted")
	}
}

// fakeInstance replays canned outcomes, one per pass.
type fakeInstance struct{ outcomes []*outcome }

func (f *fakeInstance) pass(context.Context, *recorder) *outcome {
	o := f.outcomes[0]
	f.outcomes = f.outcomes[1:]
	return o
}

func (f *fakeInstance) quality() map[string]float64 { return nil }

// Failed checks and counts that do not repeat are counted as failed
// operations, not averaged away.
func TestMeterCountsFailures(t *testing.T) {
	ctx := context.Background()
	refuted := provedResult()
	refuted.Proofs[0].Claims.Refuted = 2
	withCheck := func(summary string, res *core.Result) *outcome {
		o := &outcome{ops: []op{{name: "mult"}}}
		o.verify = func(context.Context) {
			o.ops[0].summary = summary
			o.ops[0].err = checkProof(res)
		}
		return o
	}
	m := &meter{log: io.Discard, inst: &fakeInstance{outcomes: []*outcome{
		withCheck("assumed=3", provedResult()),
		withCheck("assumed=3", refuted),        // failed check
		withCheck("assumed=4", provedResult()), // count differs from the first pass
		withCheck("assumed=3", provedResult()),
	}}}
	for i := 0; i < 4; i++ {
		m.pass(ctx, nil)
	}
	if m.attempted != 4 || m.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2", m.attempted, m.failed)
	}
}

// layerMetrics fails closed when self times do not add up to the traced
// pass, as happens when a child span escapes its parent.
func TestLayerMetricsRejectsEscapingSpan(t *testing.T) {
	setup := newRecorder("tailor", -1)
	ok := &recorder{counts: map[string]float64{}, spans: []span{
		{Name: "pass", Parent: -1, StartNs: 0, EndNs: 100, self: "core.self_s"},
		{Name: "layout.Place", Parent: 0, StartNs: 10, EndNs: 40, self: "layout.time_s"},
		{Name: "sta.Analyze", Parent: 0, StartNs: 40, EndNs: 70, self: "sta.time_s"},
	}}
	if _, err := layerMetrics(setup, ok, 0); err != nil {
		t.Fatal(err)
	}
	bad := &recorder{counts: map[string]float64{}, spans: append([]span(nil), ok.spans...)}
	bad.spans[2].EndNs = 130
	if _, err := layerMetrics(setup, bad, 0); err == nil {
		t.Fatal("a child span ending after its parent was accepted")
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the benchmark
// produces, and alloc_mb's bound is the one the per-run check applies.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s %s, program %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Name == "alloc_mb" && m.Bound != allocBound {
			t.Errorf("alloc_mb bound %v, per-run check %v", m.Bound, allocBound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s, program %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
