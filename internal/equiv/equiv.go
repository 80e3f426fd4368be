// Package equiv is the formal verification layer of the bespoke flow: it
// proves, rather than observes, that the constants the activity analysis
// claims are safe. The paper's cutting argument is dynamic ("no explored
// execution toggles this gate"); this package discharges each claimed
// constant as a SAT proof obligation over a Tseitin-encoded frame of the
// netlist, and checks the cut+re-synthesized bespoke core against the
// base core with a miter.
//
// # Proof semantics
//
// The engine reasons by 1-induction over the claim set. A frame encodes
// one settled combinational cycle: flip-flop outputs and primary inputs
// are free variables, restricted by the environment — the program image
// (exact ROM read function), memory enable gating, and the reachable
// value sets internal/symexec records per architectural bus. Claims on
// flip-flops enter the induction hypothesis (the flip-flop currently
// holds its claimed constant); the obligation is that its D input cannot
// take the opposite value. Claims on combinational gates must hold in the
// frame itself.
//
// Every claim lands in exactly one verdict:
//
//   - ProvedStructural: ternary constant propagation from the flip-flop
//     claims alone forces the gate to its claimed value.
//   - ProvedSAT: it is UNSAT for the gate to take the opposite value
//     under the environment plus the other claims.
//   - Refuted: the opposite value is reachable AND the claimed value
//     contradicts the environment plus the other claims — the claim is
//     genuinely wrong, and the satisfying assignment of the violation
//     query is a concrete stimulus (see Replay) that exhibits the
//     divergence in cosimulation.
//   - Assumed: both values are consistent with the environment — the
//     recorded invariants are too weak to decide the claim, so it rests
//     on the activity analysis (the paper's original argument).
//
// A sound environment can only grow the Proved set; Refuted is reserved
// for hard contradictions so honest-but-unprovable constants never fail
// the flow.
package equiv

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"bespoke/internal/cut"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/sat"
	"bespoke/internal/symexec"
)

// Env is the proof environment: the base netlist, the claims to
// discharge, and everything known about reachable states.
type Env struct {
	// N is the base (uncut) netlist.
	N *netlist.Netlist
	// Claims are the constants to prove (from cut.Plan).
	Claims []cut.Claim
	// ROM, when non-nil, encodes the exact program-image read function.
	ROM *ROMSpec
	// RAM, when non-nil, encodes the data-memory enable gating.
	RAM *RAMSpec
	// Domains are per-bus reachable value sets from the activity
	// analysis (may be nil: fewer claims become provable, never wrong).
	// They are DYNAMIC hypotheses: when Invariants is non-empty they are
	// ignored entirely and the proved facts take their place.
	Domains []symexec.BusDomain
	// Invariants are reachable-state facts PROVED by k-induction
	// (internal/induct). Each must carry K >= 1 — the depth its
	// induction proof used; the prover rejects unproved (K == 0)
	// entries so nothing inferred is ever silently assumed.
	Invariants []Invariant
	// InductCore maps claim gates to the induction depth at which the
	// claim itself was discharged as a member of an inductive set rooted
	// in the reset state (internal/induct's Houdini core). Claims the
	// per-frame queries leave Assumed are upgraded to ProvedInduct from
	// this map.
	InductCore map[netlist.GateID]int
}

// Verdict classifies one claim after proving.
type Verdict uint8

const (
	// Unproved means the engine did not reach this claim (limit hit).
	Unproved Verdict = iota
	// ProvedStructural: implied by flip-flop claims via constant
	// propagation, no SAT search needed.
	ProvedStructural
	// ProvedSAT: the opposite value is UNSAT under the environment.
	ProvedSAT
	// Assumed: neither provable nor contradicted; rests on the dynamic
	// analysis.
	Assumed
	// Refuted: contradicts the environment plus the other claims.
	Refuted
	// ProvedInduct: discharged by k-induction as a member of an
	// inductive claim/invariant set anchored in the reset state
	// (internal/induct). Strictly stronger than ProvedSAT: the base
	// case roots the induction in the concrete reset state instead of
	// assuming the rest of the claim set.
	ProvedInduct
)

// String names the verdict for reports.
func (v Verdict) String() string {
	switch v {
	case ProvedStructural:
		return "proved-structural"
	case ProvedSAT:
		return "proved-sat"
	case Assumed:
		return "assumed"
	case Refuted:
		return "refuted"
	case ProvedInduct:
		return "proved-induct"
	}
	return "unproved"
}

// Counterexample is one satisfying assignment of a violation query,
// projected onto the controllable state: it is a concrete machine state
// plus input vector under which the design contradicts a claim. Replay
// turns it into a cosimulation divergence.
type Counterexample struct {
	// Gate and Claimed identify the violated claim; Observed is the
	// value the gate takes in this assignment.
	Gate     netlist.GateID
	Claimed  logic.V
	Observed logic.V
	// Dffs assigns every flip-flop output net.
	Dffs map[netlist.GateID]logic.V
	// Inputs assigns every primary-input net, including the memory-macro
	// data nets.
	Inputs map[netlist.GateID]logic.V
	// RAM read seen by the frame: with En set, word RAMAddr holds
	// RAMData (preload it before replaying).
	RAMEn   bool
	RAMAddr uint16
	RAMData uint16
}

// ClaimResult is the per-claim outcome.
type ClaimResult struct {
	Claim   cut.Claim
	Verdict Verdict
	// Counterexample is set for Refuted claims discharged by a query
	// pair (nil when refuted by the consistency pre-check).
	Counterexample *Counterexample
	// Used is the provenance trail of a ProvedSAT claim: indexes into
	// Env.Invariants of the proved invariants its UNSAT core relied on
	// (nil when the proof needed none).
	Used []int32
	// K is the induction depth backing the proof: for ProvedInduct the
	// depth of the claim's own induction core, for ProvedSAT the
	// deepest K among the invariants in Used (0 = no induction behind
	// it).
	K int
}

// Report is the outcome of ProveClaims.
type Report struct {
	// Results is indexed like Env.Claims.
	Results []ClaimResult
	// Verdict tallies.
	ProvedStructural int
	ProvedSAT        int
	ProvedInduct     int
	Assumed          int
	Refuted          int
	// SATQueries counts individual Solve calls dispatched.
	SATQueries int64
	// Conflicts totals the solver conflicts of the per-claim queries.
	Conflicts int64
}

// InvariantUse tallies, for nInv environment invariants, how many
// ProvedSAT claims' UNSAT cores used each one — the aggregate provenance
// shown in per-benchmark invariant tables.
func (r *Report) InvariantUse(nInv int) []int {
	use := make([]int, nInv)
	for i := range r.Results {
		for _, ix := range r.Results[i].Used {
			if int(ix) < nInv {
				use[ix]++
			}
		}
	}
	return use
}

// Refutations returns the refuted results, lowest gate first.
func (r *Report) Refutations() []ClaimResult {
	var out []ClaimResult
	for _, cr := range r.Results {
		if cr.Verdict == Refuted {
			out = append(out, cr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Claim.Gate < out[j].Claim.Gate })
	return out
}

func (r *Report) tally() {
	r.ProvedStructural, r.ProvedSAT, r.ProvedInduct, r.Assumed, r.Refuted = 0, 0, 0, 0, 0
	for _, cr := range r.Results {
		switch cr.Verdict {
		case ProvedStructural:
			r.ProvedStructural++
		case ProvedSAT:
			r.ProvedSAT++
		case ProvedInduct:
			r.ProvedInduct++
		case Assumed:
			r.Assumed++
		case Refuted:
			r.Refuted++
		}
	}
}

// Proved is the total count of formally discharged claims.
func (r *Report) Proved() int {
	return r.ProvedStructural + r.ProvedSAT + r.ProvedInduct
}

// ProofError is the structured flow error for a refuted claim: the
// activity analysis recorded a constant that formally contradicts the
// design. It carries the counterexample stimulus so the divergence can be
// replayed in cosimulation as a regression input.
type ProofError struct {
	Gate    netlist.GateID
	Kind    netlist.Kind
	Name    string
	Claimed logic.V
	// Counterexample is nil when the claim fell to the consistency
	// pre-check (mutually contradictory claim set).
	Counterexample *Counterexample
	// Divergence is the counterexample replayed in cosimulation, when the
	// caller ran Replay (the flow does): the regression stimulus shown to
	// actually split the designs.
	Divergence *Divergence
	// Refuted is the total number of refuted claims (this error reports
	// the first by gate ID).
	Refuted int
}

func (e *ProofError) Error() string {
	s := fmt.Sprintf("equiv: claim refuted: gate %d (%s %q) is not constant %s",
		e.Gate, e.Kind, e.Name, e.Claimed)
	if e.Refuted > 1 {
		s += fmt.Sprintf(" (and %d more refuted claims)", e.Refuted-1)
	}
	if e.Divergence != nil {
		s += fmt.Sprintf(" [cosim replay: %s]", e.Divergence)
	} else if e.Counterexample != nil {
		s += " [counterexample stimulus available]"
	}
	return s
}

// LimitError reports that proving was aborted by its context with the
// partial progress made, mirroring symexec.LimitError.
type LimitError struct {
	// Reason is "deadline exceeded" or "cancelled".
	Reason string
	// Proved, Assumed, Refuted and Remaining summarize progress at abort.
	Proved    int
	Assumed   int
	Refuted   int
	Remaining int
	// Report carries the partial per-claim results.
	Report *Report
	// Err is the underlying context error.
	Err error
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("equiv: %s with %d claims proved, %d assumed, %d refuted, %d remaining",
		e.Reason, e.Proved, e.Assumed, e.Refuted, e.Remaining)
}

// Unwrap exposes the context error.
func (e *LimitError) Unwrap() error { return e.Err }

// Options tunes proving.
type Options struct {
	// QueryBudget caps solver conflicts per individual query; a query
	// that exhausts it is classified Assumed. 0 means the default
	// (50000).
	QueryBudget int64
}

func (o Options) queryBudget() int64 {
	if o.QueryBudget > 0 {
		return o.QueryBudget
	}
	return 50_000
}

// ProveClaims discharges every claim in env and classifies it. The
// context bounds the whole run: cancellation or a deadline aborts with a
// *LimitError carrying the partial report. A refuted claim is NOT an
// error here — callers gate on Report.Refuted (the flow converts it to a
// *ProofError).
func ProveClaims(ctx context.Context, env *Env, opts Options) (*Report, error) {
	if err := checkEnv(env); err != nil {
		return nil, err
	}
	rep := &Report{Results: make([]ClaimResult, len(env.Claims))}
	for i, c := range env.Claims {
		rep.Results[i].Claim = c
	}

	// Phase 1: ternary constant propagation from the flip-flop claims.
	// This discharges the bulk of the cut (fanout cones of constant
	// state) without touching the solver.
	vals, err := structuralVals(env.N, env.Claims)
	if err != nil {
		return nil, err
	}
	var residue []int // indexes into env.Claims needing SAT
	for i, c := range env.Claims {
		if vals[targetNet(env.N, c)] == c.Val {
			rep.Results[i].Verdict = ProvedStructural
			continue
		}
		residue = append(residue, i)
	}

	// The permanent-unit claim set: flip-flop claims (the induction
	// hypothesis of every query) plus structurally proved combinational
	// claims (implied by them). Residue combinational claims stay
	// per-query assumptions so a wrong one can be isolated and refuted.
	var unitIdx, residueComb []int
	for i, c := range env.Claims {
		if env.N.Gates[c.Gate].Kind == netlist.Dff || rep.Results[i].Verdict == ProvedStructural {
			unitIdx = append(unitIdx, i)
		}
	}
	for _, i := range residue {
		if env.N.Gates[env.Claims[i].Gate].Kind != netlist.Dff {
			residueComb = append(residueComb, i)
		}
	}

	// Phase 2: consistency pre-check. The permanent units must be
	// satisfiable together with the environment — otherwise every later
	// UNSAT would be vacuous. Units are passed as assumptions here so an
	// inconsistent subset can be extracted and refuted.
	if len(residue) > 0 {
		incons, err := consistencyCheck(ctx, env, unitIdx, opts)
		if err != nil {
			var le *LimitError
			if errors.As(err, &le) {
				// Carry the exact partial state: phase 1 already settled
				// the structural verdicts.
				rep.tally()
				*le = *limitError(ctx, rep, le.Err)
			}
			return nil, err
		}
		if len(incons) > 0 {
			for _, i := range incons {
				rep.Results[i].Verdict = Refuted
			}
			rep.tally()
			return rep, nil
		}
	}

	// Phase 3: per-claim violation queries, in claim order on one
	// incremental solver. Its learnt clauses carry from claim to claim,
	// so the fixed order fixes the UNSAT cores behind Used as well. An
	// abort leaves the claims not yet decided Unproved.
	var perr error
	if len(residue) > 0 {
		p, err := newProver(env, unitIdx, residueComb, opts)
		if err != nil {
			return nil, err
		}
		for _, ci := range residue {
			if perr = ctx.Err(); perr == nil {
				perr = p.decide(ctx, rep, ci)
			}
			if perr != nil {
				break
			}
		}
	}

	// Phase 4: claims the frame queries exhausted their budget on (or
	// could not decide) retry under strengthening — membership in the
	// inductive core discharges them at the core's depth.
	if env.InductCore != nil {
		for i := range rep.Results {
			cr := &rep.Results[i]
			if cr.Verdict != Assumed {
				continue
			}
			if k, ok := env.InductCore[cr.Claim.Gate]; ok {
				cr.Verdict = ProvedInduct
				cr.K = k
			}
		}
	}
	rep.tally()
	if perr != nil {
		return nil, limitError(ctx, rep, perr)
	}
	return rep, nil
}

// limitError wraps an aborted run's report (nil when there is none) with
// exact bookkeeping: Proved+Assumed+Refuted+Remaining always equals the
// claim count.
func limitError(ctx context.Context, rep *Report, err error) *LimitError {
	le := &LimitError{Reason: ctxReason(ctx), Report: rep, Err: err}
	if rep == nil {
		return le
	}
	for _, cr := range rep.Results {
		if cr.Verdict == Unproved {
			le.Remaining++
		}
	}
	le.Proved, le.Assumed, le.Refuted = rep.Proved(), rep.Assumed, rep.Refuted
	return le
}

func checkEnv(env *Env) error {
	if env == nil || env.N == nil {
		return fmt.Errorf("equiv: nil environment")
	}
	for _, c := range env.Claims {
		if c.Gate < 0 || int(c.Gate) >= len(env.N.Gates) {
			return fmt.Errorf("equiv: claim on out-of-range gate %d", c.Gate)
		}
		if c.Val != logic.Zero && c.Val != logic.One {
			return fmt.Errorf("equiv: claim on gate %d has non-constant value %s", c.Gate, c.Val)
		}
		k := env.N.Gates[c.Gate].Kind
		if k == netlist.Input || k == netlist.Const0 || k == netlist.Const1 {
			return fmt.Errorf("equiv: claim on non-claimable gate %d (%s)", c.Gate, k)
		}
	}
	for i := range env.Invariants {
		iv := &env.Invariants[i]
		if iv.K < 1 {
			return fmt.Errorf("equiv: invariant %d (%s) was never discharged by induction (K=%d); unproved hypotheses are not admitted", i, iv.Name, iv.K)
		}
		for _, b := range iv.Bits {
			if b < 0 || int(b) >= len(env.N.Gates) {
				return fmt.Errorf("equiv: invariant %d (%s) names out-of-range gate %d", i, iv.Name, b)
			}
		}
		if !iv.IsCube() {
			if iv.From < 0 || int(iv.From) >= len(env.N.Gates) || iv.To < 0 || int(iv.To) >= len(env.N.Gates) {
				return fmt.Errorf("equiv: invariant %d (%s) names an out-of-range gate", i, iv.Name)
			}
		}
	}
	return nil
}

// targetNet maps a claim to the net its proof obligation constrains: the
// gate itself for combinational claims, the D input for flip-flops (the
// induction step proves the next value).
func targetNet(n *netlist.Netlist, c cut.Claim) netlist.GateID {
	if n.Gates[c.Gate].Kind == netlist.Dff {
		return n.Gates[c.Gate].In[0]
	}
	return c.Gate
}

// structuralVals evaluates one ternary frame with every flip-flop pinned
// to its claimed constant (X otherwise) and all inputs X. A gate that
// settles to a concrete value is forced to it in every reachable state
// satisfying the flip-flop claims.
func structuralVals(n *netlist.Netlist, claims []cut.Claim) ([]logic.V, error) {
	vals := make([]logic.V, len(n.Gates))
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case netlist.Const0:
			vals[i] = logic.Zero
		case netlist.Const1:
			vals[i] = logic.One
		default:
			vals[i] = logic.X
		}
	}
	for _, c := range claims {
		if n.Gates[c.Gate].Kind == netlist.Dff {
			vals[c.Gate] = c.Val
		}
	}
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	at := func(id netlist.GateID) logic.V {
		if id == netlist.None {
			return logic.X
		}
		return vals[id]
	}
	for _, id := range topo {
		g := &n.Gates[id]
		vals[id] = g.Kind.Eval(at(g.In[0]), at(g.In[1]), at(g.In[2]))
	}
	return vals, nil
}

// consistencyCheck verifies that the permanent-unit claims are jointly
// satisfiable with the environment. It returns the indexes of an
// inconsistent claim subset (empty when consistent).
func consistencyCheck(ctx context.Context, env *Env, unitIdx []int, opts Options) ([]int, error) {
	s := sat.New()
	f, err := NewFrame(s, env.N, nil)
	if err != nil {
		return nil, err
	}
	encodeEnv(f, env)
	assume := make([]sat.Lit, len(unitIdx))
	byLit := make(map[sat.Lit]int, len(unitIdx))
	for k, i := range unitIdx {
		c := env.Claims[i]
		assume[k] = f.Lit(c.Gate, c.Val)
		byLit[assume[k]] = i
	}
	st, err := s.Solve(ctx, assume...)
	if err != nil {
		return nil, &LimitError{Reason: ctxReason(ctx), Remaining: len(env.Claims), Err: err}
	}
	switch st {
	case sat.Sat:
		return nil, nil
	case sat.Unsat:
		var incons []int
		for _, l := range s.FailedAssumptions() {
			if i, ok := byLit[l]; ok {
				incons = append(incons, i)
			}
		}
		if len(incons) == 0 {
			// The environment alone is UNSAT: that means the ROM/domain
			// constraints contradict each other, which indicates a bug.
			return nil, fmt.Errorf("equiv: proof environment is unsatisfiable without any claims")
		}
		return incons, nil
	}
	return nil, fmt.Errorf("equiv: consistency check exhausted its budget")
}

func ctxReason(ctx context.Context) string {
	if ctx.Err() == context.DeadlineExceeded {
		return "deadline exceeded"
	}
	return "cancelled"
}

// encodeEnv adds the environment clauses to a frame: the ROM read
// function, the RAM enable gating, and the reachable-state restriction —
// proved invariants when the environment carries any (hard clauses; they
// are facts), otherwise the recorded dynamic bus domains.
func encodeEnv(f *Frame, env *Env) {
	if env.ROM != nil {
		EncodeROM(f, *env.ROM)
	}
	if env.RAM != nil {
		EncodeRAMGate(f, *env.RAM)
	}
	if len(env.Invariants) > 0 {
		for i := range env.Invariants {
			env.Invariants[i].Encode(f)
		}
		return
	}
	encodeDomains(f, env.Domains)
}

// prover is the solver instance for phase-3 queries.
type prover struct {
	env      *Env
	f        *Frame
	s        *sat.Solver
	combLit  map[int]sat.Lit // residue comb claim index -> assumption literal
	combIdx  []int
	invSel   []sat.Lit       // per-invariant selector assumptions
	invByLit map[sat.Lit]int // selector literal -> invariant index
	assume   []sat.Lit       // decide's assumption buffer, refilled per claim
	budget   int64
}

func newProver(env *Env, unitIdx, residueComb []int, opts Options) (*prover, error) {
	p := &prover{env: env, budget: opts.queryBudget()}
	p.s = sat.New()
	f, err := NewFrame(p.s, env.N, nil)
	if err != nil {
		return nil, err
	}
	p.f = f
	if env.ROM != nil {
		EncodeROM(f, *env.ROM)
	}
	if env.RAM != nil {
		EncodeRAMGate(f, *env.RAM)
	}
	// Invariants are encoded behind one selector each and assumed in
	// every query: an UNSAT answer then names the invariants it relied
	// on through FailedAssumptions — the per-claim provenance trail.
	if len(env.Invariants) > 0 {
		p.invSel = make([]sat.Lit, len(env.Invariants))
		p.invByLit = make(map[sat.Lit]int, len(env.Invariants))
		for i := range env.Invariants {
			sel := p.s.NewVar()
			env.Invariants[i].Encode(f, sat.Neg(sel))
			p.invSel[i] = sat.Pos(sel)
			p.invByLit[sat.Pos(sel)] = i
		}
	} else {
		encodeDomains(f, env.Domains)
	}
	for _, i := range unitIdx {
		c := env.Claims[i]
		if !p.s.AddClause(f.Lit(c.Gate, c.Val)) {
			// Cannot happen: phase 2 proved these consistent. Guard anyway.
			return nil, fmt.Errorf("equiv: unit claims inconsistent after consistency check")
		}
	}
	p.combLit = make(map[int]sat.Lit, len(residueComb))
	p.combIdx = residueComb
	for _, i := range residueComb {
		c := env.Claims[i]
		p.combLit[i] = f.Lit(c.Gate, c.Val)
	}
	p.assume = make([]sat.Lit, 0, len(p.invSel)+len(residueComb)+1)
	return p, nil
}

// provenance extracts the invariant indexes of the final conflict from
// FailedAssumptions, plus the deepest induction level among them.
func (p *prover) provenance() (used []int32, k int) {
	if p.invByLit == nil {
		return nil, 0
	}
	for _, l := range p.s.FailedAssumptions() {
		if i, ok := p.invByLit[l]; ok {
			used = append(used, int32(i))
			if p.env.Invariants[i].K > k {
				k = p.env.Invariants[i].K
			}
		}
	}
	sort.Slice(used, func(a, b int) bool { return used[a] < used[b] })
	return used, k
}

// decide runs the violation/support query pair for claim index ci and
// records its verdict, and the queries and conflicts it spent, in rep.
// An error leaves the claim Unproved.
func (p *prover) decide(ctx context.Context, rep *Report, ci int) error {
	start := p.s.Stats().Conflicts
	defer func() { rep.Conflicts += p.s.Stats().Conflicts - start }()
	cr := &rep.Results[ci]
	c := cr.Claim
	t := targetNet(p.env.N, c)
	base := append(p.assume[:0], p.invSel...)
	for _, i := range p.combIdx {
		if i == ci {
			continue // never assume the claim under test
		}
		base = append(base, p.combLit[i])
	}

	// Query A: can the target net take the opposite value?
	p.s.SetBudget(p.budget)
	rep.SATQueries++
	st, err := p.s.Solve(ctx, append(base, p.f.Lit(t, logic.Not(c.Val)))...)
	switch {
	case err != nil:
		return err
	case st == sat.Unsat:
		cr.Verdict = ProvedSAT
		cr.Used, cr.K = p.provenance()
		return nil
	case st == sat.Unknown:
		cr.Verdict = Assumed
		return nil
	}
	cex := captureModel(p.s, p.f, p.env, c)

	// Query B: is the claimed value itself still consistent? If not, the
	// claim contradicts the environment plus the other claims — a hard
	// refutation, with A's witness as the stimulus.
	p.s.SetBudget(p.budget)
	rep.SATQueries++
	st, err = p.s.Solve(ctx, append(base, p.f.Lit(t, c.Val))...)
	if err != nil {
		return err
	}
	cr.Verdict = Assumed
	if st == sat.Unsat {
		cr.Verdict, cr.Counterexample = Refuted, cex
	}
	return nil
}

// captureModel builds a Counterexample from a satisfying model of f.
func captureModel(s *sat.Solver, f *Frame, env *Env, c cut.Claim) *Counterexample {
	cex := &Counterexample{
		Gate:    c.Gate,
		Claimed: c.Val,
		Dffs:    map[netlist.GateID]logic.V{},
		Inputs:  map[netlist.GateID]logic.V{},
	}
	val := func(g netlist.GateID) logic.V {
		return logic.FromBool(s.Value(f.vars[g]))
	}
	cex.Observed = val(targetNet(env.N, c))
	for i := range env.N.Gates {
		switch env.N.Gates[i].Kind {
		case netlist.Dff:
			cex.Dffs[netlist.GateID(i)] = val(netlist.GateID(i))
		case netlist.Input:
			cex.Inputs[netlist.GateID(i)] = val(netlist.GateID(i))
		}
	}
	if env.RAM != nil {
		cex.RAMEn = val(env.RAM.En) == logic.One
		for i, b := range env.RAM.Addr {
			if val(b) == logic.One {
				cex.RAMAddr |= 1 << uint(i)
			}
		}
		for i, b := range env.RAM.Data {
			if val(b) == logic.One {
				cex.RAMData |= 1 << uint(i)
			}
		}
	}
	return cex
}
