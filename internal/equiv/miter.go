package equiv

import (
	"context"
	"fmt"

	"bespoke/internal/cut"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/sat"
)

// MiterResult is the outcome of a base-vs-bespoke equivalence check.
type MiterResult struct {
	// Equivalent reports that no reachable frame can distinguish the
	// designs on any obligation, modulo AssumedClaims.
	Equivalent bool
	// Obligations is the number of compared net pairs.
	Obligations int
	// AssumedClaims counts hypothesis claims that ProveClaims could not
	// formally discharge (verdict Assumed): the equivalence is
	// conditional on them and they rest on the dynamic analysis.
	AssumedClaims int
	// Invariants counts the proved reachable-state invariants encoded in
	// place of the recorded dynamic bus domains. When non-zero, the
	// miter carries NO dynamic hypotheses beyond AssumedClaims: every
	// environment constraint is either exact (ROM image, RAM gating) or
	// discharged by induction.
	Invariants int
	// Mismatch names the first differing obligation when inequivalent.
	Mismatch string
	// Counterexample is the distinguishing frame when inequivalent.
	Counterexample *Counterexample
}

// obligation is one net pair the miter must prove equal.
type obligation struct {
	name       string
	base, besp netlist.GateID
}

// ProveMiter checks the cut+re-synthesized bespoke netlist against the
// base design: under the induction hypothesis (kept flip-flops hold equal
// values, all non-refuted claims hold on the base side, memories hold
// equal contents) and the shared environment, every primary output, every
// kept flip-flop's next state, and every memory-macro input pin must be
// equal.
//
// The miter verifies the TRANSFORMATION — cutting plus resynthesis is
// faithful to the claim set. Claim VALIDITY is ProveClaims' job: pass its
// Report so refuted claims are excluded from the hypothesis (a corrupted
// constant then surfaces as an inequivalence instead of being assumed
// away). With a nil report every claim is assumed. Equivalence is modulo
// the claims ProveClaims classified Assumed; MiterResult.AssumedClaims
// counts them.
//
// The context bounds the solve; cancellation aborts with a *LimitError
// that carries rep, whose claim verdicts are all settled.
func ProveMiter(ctx context.Context, env *Env, bespoke *netlist.Netlist, rep *Report, opts Options) (*MiterResult, error) {
	if err := checkEnv(env); err != nil {
		return nil, err
	}
	if len(bespoke.Gates) != len(env.N.Gates) {
		return nil, fmt.Errorf("equiv: bespoke netlist has %d gates, base %d (cutting must preserve IDs)",
			len(bespoke.Gates), len(env.N.Gates))
	}
	if rep != nil && len(rep.Results) != len(env.Claims) {
		return nil, fmt.Errorf("equiv: report covers %d claims, environment has %d", len(rep.Results), len(env.Claims))
	}
	s := sat.New()
	fb, err := NewFrame(s, env.N, nil)
	if err != nil {
		return nil, err
	}
	encodeEnv(fb, env)

	// Induction hypothesis: every claim that ProveClaims did not refute
	// holds on the base side (on the bespoke side the cut gates are Const
	// cells). Kept flip-flop and input nets are shared outright.
	assumed := 0
	for i, c := range env.Claims {
		if rep != nil {
			switch rep.Results[i].Verdict {
			case Refuted, Unproved:
				continue
			case Assumed:
				assumed++
			}
		}
		s.AddClause(fb.Lit(c.Gate, c.Val))
	}
	shared := map[netlist.GateID]sat.Var{}
	for i := range bespoke.Gates {
		switch bespoke.Gates[i].Kind {
		case netlist.Input:
			shared[netlist.GateID(i)] = fb.vars[i]
		case netlist.Dff:
			// A kept flip-flop: same current value both sides.
			shared[netlist.GateID(i)] = fb.vars[i]
		}
	}
	// Structural sharing: a bespoke gate with the same kind and pins as
	// its base twin, whose connected inputs are all themselves shared,
	// computes the identical function of the shared leaves, so both sides
	// use one CNF variable. Without this the solver has to re-derive the
	// equality of every untouched cone pair by search, which is
	// intractable exactly where it matters least (a surviving multiplier
	// is the classic exponential case for CNF equivalence). Gates the cut
	// rewrote (kind or pins differ) keep distinct variables, so every
	// real proof obligation is untouched. Gate IDs grow roughly
	// topologically, so the fixpoint converges in a few sweeps.
	for {
		grew := false
		for i := range bespoke.Gates {
			id := netlist.GateID(i)
			if _, ok := shared[id]; ok {
				continue
			}
			gb, ga := &bespoke.Gates[i], &env.N.Gates[i]
			if gb.Kind != ga.Kind || gb.In != ga.In {
				continue
			}
			identical := true
			for p := 0; p < gb.Kind.NumInputs(); p++ {
				in := gb.In[p]
				if in == netlist.None {
					identical = false
					break
				}
				if _, ok := shared[in]; !ok {
					identical = false
					break
				}
			}
			if identical {
				shared[id] = fb.vars[i]
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	fs, err := NewFrame(s, bespoke, shared)
	if err != nil {
		return nil, err
	}

	// Obligations.
	var obs []obligation
	for i, o := range env.N.Outputs {
		bo := o.Gate
		so := bespoke.Outputs[i].Gate
		obs = append(obs, obligation{name: "output " + o.Name, base: bo, besp: so})
	}
	for i := range bespoke.Gates {
		if bespoke.Gates[i].Kind == netlist.Dff {
			obs = append(obs, obligation{
				name: fmt.Sprintf("dff %d D-input", i),
				base: env.N.Gates[i].In[0], besp: bespoke.Gates[i].In[0],
			})
		}
	}
	addPins := func(tag string, pins []netlist.GateID) {
		for k, p := range pins {
			obs = append(obs, obligation{name: fmt.Sprintf("%s[%d]", tag, k), base: p, besp: p})
		}
	}
	if env.ROM != nil {
		addPins("rom.addr", env.ROM.Addr)
		addPins("rom.en", []netlist.GateID{env.ROM.En})
	}
	if env.RAM != nil {
		addPins("ram.addr", env.RAM.Addr)
		addPins("ram.wdata", env.RAM.WData)
		addPins("ram.ctl", []netlist.GateID{env.RAM.En, env.RAM.WEnLo, env.RAM.WEnHi})
	}

	// Consistency guard: the environment plus hypothesis must be
	// satisfiable, otherwise "equivalent" would be vacuous.
	st, err := s.Solve(ctx)
	if err != nil {
		return nil, limitError(ctx, rep, err)
	}
	if st == sat.Unsat {
		return nil, fmt.Errorf("equiv: miter hypothesis is unsatisfiable (a claim contradicts the environment); run ProveClaims first")
	}

	// Assert that some obligation differs.
	diffs := make([]sat.Lit, len(obs))
	for i, o := range obs {
		diffs[i] = sat.Pos(xorVar(s, fb.vars[o.base], fs.vars[o.besp]))
	}
	s.AddClause(diffs...)
	s.SetBudget(0)
	st, err = s.Solve(ctx)
	if err != nil {
		return nil, limitError(ctx, rep, err)
	}
	res := &MiterResult{Obligations: len(obs), AssumedClaims: assumed, Invariants: len(env.Invariants)}
	switch st {
	case sat.Unsat:
		res.Equivalent = true
		return res, nil
	case sat.Sat:
		mis := obs[0].base
		for i, o := range obs {
			if s.Value(diffs[i].Var()) {
				res.Mismatch = o.name
				mis = o.base
				break
			}
		}
		// Project the model onto the base frame state; the claim slot
		// records the first differing net.
		res.Counterexample = captureModel(s, fb, env, cut.Claim{Gate: mis, Val: logic.X})
		return res, nil
	}
	return nil, fmt.Errorf("equiv: miter solve exhausted its budget")
}
