package equiv_test

// Real-benchmark proof tests. These live in an external test package so
// they can import bench (which pulls in core) without creating an import
// cycle with equiv itself.

import (
	"context"
	"testing"
	"time"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/cut"
	"bespoke/internal/equiv"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
)

// analyzeBench runs symbolic activity analysis with domain recording on a
// named benchmark and returns the proof environment.
func analyzeBench(t *testing.T, name string) (*equiv.Env, *symexec.Result, *cpu.Core) {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %s", name)
	}
	res, c, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{RecordDomains: true})
	if err != nil {
		t.Fatalf("analyze %s: %v", name, err)
	}
	env, err := equiv.NewCoreEnv(c, res)
	if err != nil {
		t.Fatalf("env %s: %v", name, err)
	}
	return env, res, c
}

func TestProveBenchmarkClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SAT proof sweep")
	}
	for _, name := range []string{"dbg", "binSearch"} {
		t.Run(name, func(t *testing.T) {
			env, _, _ := analyzeBench(t, name)
			start := time.Now()
			rep, err := equiv.ProveClaims(context.Background(), env, equiv.Options{})
			if err != nil {
				t.Fatalf("ProveClaims: %v", err)
			}
			t.Logf("%s: %d claims in %v: %d structural, %d SAT-proved, %d assumed, %d refuted (%d queries, %d conflicts)",
				name, len(rep.Results), time.Since(start).Round(time.Millisecond),
				rep.ProvedStructural, rep.ProvedSAT, rep.Assumed, rep.Refuted,
				rep.SATQueries, rep.Conflicts)
			if rep.Conflicts <= 0 {
				t.Errorf("%d SAT queries recorded %d conflicts: the per-query solver conflicts are not totalled", rep.SATQueries, rep.Conflicts)
			}
			if rep.Refuted != 0 {
				for _, r := range rep.Refutations() {
					t.Errorf("refuted honest claim: gate %d (%s) claimed %s",
						r.Claim.Gate, env.N.Gates[r.Claim.Gate].Name, r.Claim.Val)
				}
			}
		})
	}
}

// TestSeededCorruption flips one recorded constant on a real benchmark
// and checks the whole formal story end to end: ProveClaims refutes
// exactly the corrupted claim with a counterexample, Replay turns that
// counterexample into a cosimulation divergence, and the miter finds the
// cut+stitched netlist inequivalent.
func TestSeededCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SAT corruption test")
	}
	env, res, c := analyzeBench(t, "dbg")

	// Pick victims: combinational claims the honest run proves
	// structurally (their value is forced by the flip-flop claims, so
	// flipping them must produce a hard contradiction), preferring ones
	// that feed surviving (toggled) logic so the miter sees the damage.
	honest, err := equiv.ProveClaims(context.Background(), env, equiv.Options{})
	if err != nil {
		t.Fatalf("honest ProveClaims: %v", err)
	}
	fanoutToggled := make([]bool, len(env.N.Gates))
	for i := range env.N.Gates {
		if !res.Toggled[i] {
			continue
		}
		for _, in := range env.N.Gates[i].In {
			if in != netlist.None {
				fanoutToggled[in] = true
			}
		}
	}
	var victims []netlist.GateID
	for _, cr := range honest.Results {
		if cr.Verdict != equiv.ProvedStructural {
			continue
		}
		if env.N.Gates[cr.Claim.Gate].Kind == netlist.Dff {
			continue
		}
		if fanoutToggled[cr.Claim.Gate] {
			victims = append(victims, cr.Claim.Gate)
		}
	}
	if len(victims) == 0 {
		t.Fatal("no structurally proved comb claim feeds surviving logic")
	}

	victim := victims[0]
	truth := res.ConstVal[victim]
	res.ConstVal[victim] = logic.Not(truth)
	defer func() { res.ConstVal[victim] = truth }()

	corrupted, err := equiv.NewCoreEnv(c, res)
	if err != nil {
		t.Fatalf("corrupted env: %v", err)
	}
	rep, err := equiv.ProveClaims(context.Background(), corrupted, equiv.Options{})
	if err != nil {
		t.Fatalf("corrupted ProveClaims: %v", err)
	}
	var vicResult *equiv.ClaimResult
	for i := range rep.Results {
		if rep.Results[i].Claim.Gate == victim {
			vicResult = &rep.Results[i]
		}
	}
	if vicResult == nil {
		t.Fatalf("victim gate %d not in claim set", victim)
	}
	if vicResult.Verdict != equiv.Refuted {
		t.Fatalf("corrupted claim verdict %s, want refuted", vicResult.Verdict)
	}
	cex := vicResult.Counterexample
	if cex == nil {
		t.Fatal("refutation carries no counterexample")
	}
	if cex.Observed != truth {
		t.Errorf("counterexample observes %s, true constant is %s", cex.Observed, truth)
	}
	t.Logf("victim gate %d (%s %q): claimed %s, refuted with counterexample observing %s; %d claims refuted total",
		victim, env.N.Gates[victim].Kind, env.N.Gates[victim].Name,
		logic.Not(truth), cex.Observed, rep.Refuted)

	// Replay the counterexample in gate-level cosimulation: the base
	// design settles away from the corrupted constant while the bespoke
	// design has it stitched in.
	bespoke := c.Clone()
	if _, err := cut.Apply(bespoke.N, res.Toggled, res.ConstVal); err != nil {
		t.Fatalf("cut corrupted netlist: %v", err)
	}
	div, err := equiv.Replay(context.Background(), c, bespoke, cex)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	t.Logf("replay: %s", div)
	if div.Base != truth {
		t.Errorf("base design settles to %s, want true constant %s", div.Base, truth)
	}
	if div.Bespoke != logic.Not(truth) {
		t.Errorf("bespoke design settles to %s, want stitched constant %s", div.Bespoke, logic.Not(truth))
	}
	if div.Base == div.Bespoke {
		t.Error("counterexample stimulus does not diverge in cosimulation")
	}

	// The miter must also notice: try the preferred victim first, then
	// the rest (a single wrong constant can be masked downstream when it
	// only feeds other cut gates).
	caught := false
	for _, v := range victims {
		res.ConstVal[victim] = truth // undo previous corruption
		victim, truth = v, res.ConstVal[v]
		res.ConstVal[victim] = logic.Not(truth)
		corrupted, err := equiv.NewCoreEnv(c, res)
		if err != nil {
			t.Fatalf("corrupted env: %v", err)
		}
		rep, err := equiv.ProveClaims(context.Background(), corrupted, equiv.Options{})
		if err != nil {
			t.Fatalf("corrupted ProveClaims: %v", err)
		}
		bespoke := c.Clone()
		if _, err := cut.Apply(bespoke.N, res.Toggled, res.ConstVal); err != nil {
			t.Fatalf("cut corrupted netlist: %v", err)
		}
		mres, err := equiv.ProveMiter(context.Background(), corrupted, bespoke.N, rep, equiv.Options{})
		if err != nil {
			t.Fatalf("miter: %v", err)
		}
		if !mres.Equivalent {
			if mres.Counterexample == nil {
				t.Error("miter counterexample missing")
			}
			t.Logf("miter caught corruption of gate %d at obligation %q", victim, mres.Mismatch)
			caught = true
			break
		}
	}
	if !caught {
		t.Errorf("miter missed all %d corrupted-constant candidates", len(victims))
	}
}

// TestMiterBenchmarkHonest proves the honestly cut netlist equivalent to
// the base design on a real benchmark.
func TestMiterBenchmarkHonest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SAT miter test")
	}
	env, res, c := analyzeBench(t, "dbg")
	honest, err := equiv.ProveClaims(context.Background(), env, equiv.Options{})
	if err != nil {
		t.Fatalf("ProveClaims: %v", err)
	}
	bespoke := c.Clone()
	if _, err := cut.Apply(bespoke.N, res.Toggled, res.ConstVal); err != nil {
		t.Fatalf("cut: %v", err)
	}
	start := time.Now()
	mres, err := equiv.ProveMiter(context.Background(), env, bespoke.N, honest, equiv.Options{})
	if err != nil {
		t.Fatalf("miter: %v", err)
	}
	t.Logf("miter: %d obligations, %d assumed claims, %v", mres.Obligations, mres.AssumedClaims, time.Since(start).Round(time.Millisecond))
	if !mres.Equivalent {
		t.Fatalf("honest cut inequivalent at %q", mres.Mismatch)
	}
}
