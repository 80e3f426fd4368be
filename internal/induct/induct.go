// Package induct is the static reachable-state strengthening engine of
// the bespoke flow: it infers candidate invariants of the sequential
// gate-level design by abstract interpretation and discharges them
// soundly by k-induction over a SAT unrolling of the netlist.
//
// # Why
//
// internal/equiv reasons over a single combinational frame whose
// flip-flops are free variables. Its environment therefore had to
// RESTRICT those free states with the dynamically recorded bus domains —
// an observation, not a proof, and the one assumption left in the
// signoff. This package replaces that assumption with facts: the same
// value-set shapes (plus flip-flop constants and pairwise implications)
// are treated as mere CANDIDATES, and only the subset that survives a
// k-induction proof is ever handed back to the prover.
//
// # Method
//
// Candidates come from three abstract interpretations (see candidates.go):
// a ternary constant fixpoint over the DFF next-state cones, per-bus
// value-set/interval domains seeded from the recorded dynamic domains and
// the program image, and pairwise DFF implications filtered against
// concrete random-input simulation samples. The cut plan's claims
// themselves join the candidate pool, so a claim can be proved outright
// as a member of the inductive core.
//
// Discharge is a Houdini-style greatest fixpoint over a ladder of depths
// k = 1, 2, 4, ..., K, on one solver over equiv's exported frame
// encoder:
//
//   - BASE, shallow to deep, on one unrolling that each depth extends:
//     frames 0..k-1 chained through the flip-flops, frame 0 pinned to
//     the concrete reset state. Any candidate violated in a model is
//     dropped for good (it does not even hold near reset — under the
//     havoc-RAM over-approximation — and deeper depths only add base
//     frames).
//   - STEP, deep to shallow, each on the solver reset: frames 0..k,
//     free start. Every candidate of the depth's set is assumed
//     (selector-guarded) in frames 0..k-1; a round clause asserts some
//     candidate is violated at frame k. Each SAT model drops the
//     candidates it violates, and 64 simulated lanes extend the model
//     forward under random inputs to drop more from the same solve (see
//     extend); UNSAT means the surviving set is k-inductive.
//
// The deepest step runs over every candidate its base check kept; each
// shallower one runs over the survivors of the depth above. A k-inductive
// set is also inductive at every deeper depth, so the greatest
// k-inductive subset of the base survivors lies inside the deeper
// survivors and the descent loses nothing. Survivors are PROVED: they
// hold in every reachable settled state, and each candidate's K records
// the shallowest depth whose survivors hold it. Nothing that fails its
// induction step is ever returned — the engine cannot produce an assumed
// hypothesis.
package induct

import (
	"context"
	"fmt"

	"bespoke/internal/cut"
	"bespoke/internal/equiv"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/sat"
	"bespoke/internal/symexec"
)

// Bus names one architectural flip-flop bus of the design, LSB first.
type Bus struct {
	Name string
	Bits []netlist.GateID
	// Control marks compact state-machine/instruction buses whose bits
	// anchor implication candidates (antecedents are drawn from control
	// buses only, keeping the pair count tractable).
	Control bool
}

// SampleSet is a batch of concrete flip-flop snapshots from real
// randomized executions, used only to pre-filter implication candidates
// (a candidate violated by any concrete run can never be an invariant).
type SampleSet struct {
	// Dffs lists the sampled flip-flop gates.
	Dffs []netlist.GateID
	// Vals holds one snapshot per settled cycle, aligned with Dffs.
	Vals [][]logic.V
}

// Spec describes the sequential design under induction.
type Spec struct {
	// N is the base netlist; flip-flop reset values come from its gates.
	N *netlist.Netlist
	// ROM/RAM mirror the equiv environment: the exact program-image read
	// function and the data-memory enable gating (RAM contents are havoc
	// — free every frame — which over-approximates real memory).
	ROM *equiv.ROMSpec
	RAM *equiv.RAMSpec
	// Buses are the architectural flip-flop buses candidates range over.
	Buses []Bus
	// Seeds are the dynamically recorded bus domains, used ONLY to seed
	// candidate value sets — never assumed.
	Seeds []symexec.BusDomain
	// Samples optionally holds concrete-run snapshots for implication
	// filtering.
	Samples *SampleSet
	// Extra holds additional target-specific candidate invariants supplied
	// by the spec builder (e.g. "pc lies in ROM"); like every other
	// candidate they are only returned if discharged by induction.
	Extra []equiv.Invariant
}

// Options tunes the engine.
type Options struct {
	// K is the maximum induction depth of the ladder (default 8 — deep
	// enough to unroll a complete multi-cycle instruction fetch, which is
	// what forces the program-counter/instruction-register correlation
	// that most cross-flip-flop candidates rest on). The ladder visits
	// geometrically spaced depths (1, 2, 4, ..., K) rather than every
	// integer. Depth K decides which candidates are proved; the shallower
	// depths only label each proved candidate with the shallowest depth
	// that proves it, each re-running the step over the survivors of the
	// depth above.
	K int
	// QueryBudget caps solver conflicts per individual solve; 0 means
	// the default (500000). A solve that exhausts it abandons its check,
	// which is sound (fewer invariants proved, or looser K labels): a
	// base check abandoned at depth k abandons every depth from k on,
	// so the next shallower depth becomes the top; a step abandoned at
	// the top hands the top to the next shallower depth, over the same
	// candidates; a step abandoned below the top leaves its candidates
	// the label of the depth above and the next depth starts from the
	// same set.
	QueryBudget int64
	// Trace, when non-nil, observes the Houdini ladder: it is called
	// with "base-drop" (reset-reachable violation, permanent),
	// "step-drop" (not inductive at this depth), "budget" (check
	// abandoned) or "proved" (once per proved candidate, after the
	// descent, with its label), the candidate's name, and the ladder
	// depth. Diagnostics only — it must not block.
	Trace func(event, name string, k int)
}

// trace invokes the Trace hook when installed.
func (o Options) trace(event, name string, k int) {
	if o.Trace != nil {
		o.Trace(event, name, k)
	}
}

func (o Options) k() int {
	if o.K > 0 {
		return o.K
	}
	return 8
}

// ladder returns the geometrically spaced depths 1, 2, 4, ... up to and
// including k().
func (o Options) ladder() []int {
	var ks []int
	for k := 1; k < o.k(); k *= 2 {
		ks = append(ks, k)
	}
	return append(ks, o.k())
}

func (o Options) queryBudget() int64 {
	if o.QueryBudget > 0 {
		return o.QueryBudget
	}
	return 500_000
}

// Result is the outcome of Prove.
type Result struct {
	// K is the shallowest ladder depth by which every candidate is
	// either proved (its own K) or dropped by a base check; when some
	// candidate is neither, the deepest depth whose base check ran.
	K int
	// Invariants are the proved non-claim invariants, each with its
	// discharge depth in K. This is what equiv.Env.Invariants consumes.
	Invariants []equiv.Invariant
	// Core maps claim gates to the depth at which the claim itself was
	// proved as a member of the inductive core (equiv.Env.InductCore).
	Core map[netlist.GateID]int
	// Candidates counts everything the abstract interpretation proposed
	// (including the claims); Dropped counts candidates that failed
	// their base case or induction step and were discarded.
	Candidates int
	Dropped    int
	// Rounds counts Houdini rounds, Queries individual solves. Each round
	// is one solve, so the two are always equal.
	Rounds  int
	Queries int64
	// Conflicts aggregates solver conflicts.
	Conflicts int64
	// BudgetExhausted reports that some check was abandoned on budget
	// (see Options.QueryBudget); the returned invariants are still all
	// proved.
	BudgetExhausted bool
}

// candidate is one hypothesis moving through the Houdini ladder.
type candidate struct {
	inv   equiv.Invariant
	claim int // index into the claim list, or -1 for an inferred invariant
	// baseK is the depth whose base check dropped the candidate and
	// label the shallowest depth whose step survivors hold it; 0 when
	// that has not happened.
	baseK, label int
}

type engine struct {
	spec   *Spec
	opts   Options
	cands  []candidate
	res    *Result
	lanes  *lanes      // extends step counterexamples (see extend)
	solver *sat.Solver // holds the base unrolling, then reset for every step check
}

// Prove infers candidate invariants for spec and discharges them by
// k-induction, treating the given claims as candidates too. The context
// bounds all solving; cancellation returns ctx.Err() with whatever was
// already proved discarded.
func Prove(ctx context.Context, spec *Spec, claims []cut.Claim, opts Options) (*Result, error) {
	if spec == nil || spec.N == nil {
		return nil, fmt.Errorf("induct: nil spec")
	}
	l, err := newLanes(spec, laneSeed)
	if err != nil {
		return nil, err
	}
	e := &engine{spec: spec, opts: opts, res: &Result{Core: map[netlist.GateID]int{}}, lanes: l, solver: sat.New()}
	if err := e.infer(claims); err != nil {
		return nil, err
	}
	e.res.Candidates = len(e.cands)

	set := make([]int, len(e.cands))
	for i := range set {
		set[i] = i
	}
	// Base checks, shallow to deep, up to the first one abandoned on
	// budget: the deepest completed one is the top of the descent.
	ks := opts.ladder()
	top, deepest := 0, 0
	u := &unrolling{viol: make([][]sat.Lit, len(e.cands))}
	for _, k := range ks {
		if len(set) == 0 {
			break
		}
		deepest = k
		kept, ok, err := e.baseCheck(ctx, u, k, set)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		set = kept
		top++
	}
	// Step fixpoints, deep to shallow, each over the survivors of the
	// depth above; a step abandoned on budget leaves the set and its
	// labels as they were.
	for i := top - 1; i >= 0 && len(set) > 0; i-- {
		survivors, ok, err := e.stepCheck(ctx, ks[i], set)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for _, ci := range survivors {
			e.cands[ci].label = ks[i]
		}
		set = survivors
	}

	// Result.K: the depth by which every candidate is proved or
	// base-dropped, else the deepest base check that ran.
	proved := 0
	for ci := range e.cands {
		c := &e.cands[ci]
		switch {
		case c.baseK > 0:
			e.res.K = max(e.res.K, c.baseK)
		case c.label == 0:
			e.res.K = max(e.res.K, deepest)
		default:
			e.res.K = max(e.res.K, c.label)
			proved++
			c.inv.K = c.label
			e.opts.trace("proved", c.inv.Name, c.label)
			if c.claim >= 0 {
				e.res.Core[claims[c.claim].Gate] = c.label
			} else {
				e.res.Invariants = append(e.res.Invariants, c.inv)
			}
		}
	}
	e.res.Dropped = len(e.cands) - proved
	return e.res, nil
}

// addFrame encodes one more combinational frame on s, chaining each
// flip-flop's output variable to prev's D-input variable (the transition
// relation of one clock edge), and adds the per-frame memory environment.
func (e *engine) addFrame(s *sat.Solver, prev *equiv.Frame) (*equiv.Frame, error) {
	var shared map[netlist.GateID]sat.Var
	if prev != nil {
		shared = make(map[netlist.GateID]sat.Var)
		for i := range e.spec.N.Gates {
			g := &e.spec.N.Gates[i]
			if g.Kind == netlist.Dff {
				shared[netlist.GateID(i)] = prev.Var(g.In[0])
			}
		}
	}
	f, err := equiv.NewFrame(s, e.spec.N, shared)
	if err != nil {
		return nil, err
	}
	if e.spec.ROM != nil {
		equiv.EncodeROM(f, *e.spec.ROM)
	}
	if e.spec.RAM != nil {
		equiv.EncodeRAMGate(f, *e.spec.RAM)
	}
	return f, nil
}

// pinReset asserts the concrete reset value of every flip-flop in f
// (X resets stay free — sound).
func (e *engine) pinReset(f *equiv.Frame) {
	for i := range e.spec.N.Gates {
		g := &e.spec.N.Gates[i]
		if g.Kind == netlist.Dff && g.Reset != logic.X {
			f.Solver().AddClause(f.Lit(netlist.GateID(i), g.Reset))
		}
	}
}

// solve runs one budgeted solve and accounts for it. Cancellation is
// checked up front: trivial queries finish before the solver polls the
// context, and an aborted run must not keep laddering.
func (e *engine) solve(ctx context.Context, s *sat.Solver, assume ...sat.Lit) (sat.Status, error) {
	if err := ctx.Err(); err != nil {
		return sat.Unknown, err
	}
	s.SetBudget(e.opts.queryBudget())
	before := s.Stats().Conflicts
	st, err := s.Solve(ctx, assume...)
	e.res.Queries++
	e.res.Conflicts += s.Stats().Conflicts - before
	return st, err
}

// unrolling is the reset-pinned unrolling the ladder's base checks
// share, on e.solver: frames 0..len(frames)-1 from reset, and viol[ci]
// holds candidate ci's violation literal in each of the frames that
// existed while ci was active.
type unrolling struct {
	frames []*equiv.Frame
	viol   [][]sat.Lit
}

// baseCheck drops the active candidates violated within the first k
// settled frames from reset, recording k as their baseK, and returns the
// remaining ones. It extends u to k frames and encodes the active
// candidates' violations in the new ones; every model of the k-frame
// unrolling restricts to one of each shallower one, so a shallower
// depth's frames, round clauses and learnt clauses all stay sound. ok is
// false when a solve ran out of budget; the check is then abandoned and
// kept is nil.
func (e *engine) baseCheck(ctx context.Context, u *unrolling, k int, active []int) (kept []int, ok bool, err error) {
	s := e.solver
	for t := len(u.frames); t < k; t++ {
		var prev *equiv.Frame
		if t > 0 {
			prev = u.frames[t-1]
		}
		f, ferr := e.addFrame(s, prev)
		if ferr != nil {
			return nil, false, ferr
		}
		u.frames = append(u.frames, f)
		if t == 0 {
			e.pinReset(f)
		}
	}
	frames := u.frames
	for _, ci := range active {
		lits := u.viol[ci]
		if lits == nil {
			lits = make([]sat.Lit, 0, e.opts.k())
		}
		for t := len(lits); t < k; t++ {
			lits = append(lits, e.cands[ci].inv.EncodeViolation(frames[t]))
		}
		u.viol[ci] = lits
	}

	act := append([]int(nil), active...)
	var clause []sat.Lit
	for len(act) > 0 {
		round := s.NewVar()
		clause = append(clause[:0], sat.Neg(round))
		for _, ci := range act {
			clause = append(clause, u.viol[ci]...)
		}
		s.AddClause(clause...)
		st, serr := e.solve(ctx, s, sat.Pos(round))
		if serr != nil {
			return nil, false, serr
		}
		e.res.Rounds++
		switch st {
		case sat.Unsat:
			return act, true, nil
		case sat.Unknown:
			e.res.BudgetExhausted = true
			for _, ci := range act {
				e.opts.trace("budget", e.cands[ci].inv.Name, k)
			}
			return nil, false, nil
		}
		// Drop every candidate the model violates in some base frame.
		keep := act[:0]
		for _, ci := range act {
			violated := false
			for t := 0; t < k && !violated; t++ {
				f := frames[t]
				violated = !e.cands[ci].inv.Holds(func(g netlist.GateID) bool { return s.Value(f.Var(g)) })
			}
			if violated {
				e.cands[ci].baseK = k
				e.opts.trace("base-drop", e.cands[ci].inv.Name, k)
			} else {
				keep = append(keep, ci)
			}
		}
		if len(keep) == len(act) {
			// Cannot happen (the round clause forces a genuine violation);
			// guard against livelock anyway.
			return nil, false, fmt.Errorf("induct: base model violates no candidate")
		}
		act = keep
		s.AddClause(sat.Neg(round)) // retire the round clause
	}
	return act, true, nil
}

// stepCheck runs the Houdini fixpoint of the k-induction step: assume all
// active candidates in frames 0..k-1, drop any candidate a model violates
// at frame k, until UNSAT. The survivors are the greatest k-inductive
// subset of active. ok is false when a solve ran out of budget; the
// check is then abandoned and survivors is nil.
func (e *engine) stepCheck(ctx context.Context, k int, active []int) (survivors []int, ok bool, err error) {
	s := e.solver
	s.Reset()
	frames := make([]*equiv.Frame, k+1)
	var prev *equiv.Frame
	for t := 0; t <= k; t++ {
		f, ferr := e.addFrame(s, prev)
		if ferr != nil {
			return nil, false, ferr
		}
		frames[t] = f
		prev = f
	}

	sel := make(map[int]sat.Lit, len(active))
	viol := make(map[int]sat.Lit, len(active))
	for _, ci := range active {
		sv := s.NewVar()
		for t := 0; t < k; t++ {
			e.cands[ci].inv.Encode(frames[t], sat.Neg(sv))
		}
		sel[ci] = sat.Pos(sv)
		viol[ci] = e.cands[ci].inv.EncodeViolation(frames[k])
	}

	act := append([]int(nil), active...)
	clause := make([]sat.Lit, 0, len(act)+1)
	assume := make([]sat.Lit, 0, len(act)+1)
	for len(act) > 0 {
		round := s.NewVar()
		clause = append(clause[:0], sat.Neg(round))
		assume = assume[:0]
		for _, ci := range act {
			clause = append(clause, viol[ci])
			assume = append(assume, sel[ci])
		}
		s.AddClause(clause...)
		assume = append(assume, sat.Pos(round))
		st, serr := e.solve(ctx, s, assume...)
		if serr != nil {
			return nil, false, serr
		}
		e.res.Rounds++
		switch st {
		case sat.Unsat:
			return act, true, nil
		case sat.Unknown:
			e.res.BudgetExhausted = true
			for _, ci := range act {
				e.opts.trace("budget", e.cands[ci].inv.Name, k)
			}
			return nil, false, nil
		}
		fk := frames[k]
		keep := act[:0]
		for _, ci := range act {
			if e.cands[ci].inv.Holds(func(g netlist.GateID) bool { return s.Value(fk.Var(g)) }) {
				keep = append(keep, ci)
			} else {
				e.opts.trace("step-drop", e.cands[ci].inv.Name, k)
				s.AddClause(sel[ci].Not()) // deactivate its hypothesis
			}
		}
		if len(keep) == len(act) {
			return nil, false, fmt.Errorf("induct: step model violates no candidate")
		}
		act = e.extend(s, fk, k, keep, sel)
		s.AddClause(sat.Neg(round))
	}
	return act, true, nil
}

// Limits of one counterexample extension (see extend).
const (
	extendIdle   = 8   // frames without a drop before it stops
	extendFrames = 128 // frames at most
)

// extend drops more candidates on the back of one satisfiable step query.
// It restarts 64 lanes from the model's frame-k flip-flop state and
// simulates them forward under random inputs, dropping every active
// candidate violated in a lane's frame t. Each such window t-k..t is
// itself a model of the step query: frames before the lane's first are
// the model's own, which satisfy every candidate still active, and every
// violation an earlier lane frame showed was dropped when it showed. The
// greatest k-inductive subset is unique, so these drops change how many
// solves the fixpoint takes, never the survivors. The extension stops
// after extendIdle frames without a drop or extendFrames frames. It
// returns the still-active candidates (act, filtered in place).
func (e *engine) extend(s *sat.Solver, fk *equiv.Frame, k int, act []int, sel map[int]sat.Lit) []int {
	l := e.lanes
	l.load(s, fk)
	for t, idle := 0, 0; t < extendFrames && idle < extendIdle && len(act) > 0; t++ {
		if t > 0 {
			l.clock()
		}
		l.settle()
		keep := act[:0]
		idle++
		for _, ci := range act {
			if violated(&e.cands[ci].inv, l.val) == 0 {
				keep = append(keep, ci)
				continue
			}
			e.opts.trace("step-drop", e.cands[ci].inv.Name, k)
			s.AddClause(sel[ci].Not())
			idle = 0
		}
		act = keep
	}
	return act
}
