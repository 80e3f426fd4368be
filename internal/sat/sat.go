// Package sat is a pure-Go CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat lineage: two-literal watched propagation,
// VSIDS-style variable activity with phase saving, first-UIP conflict
// analysis with clause learning and basic self-subsumption minimization,
// Luby restarts, activity-driven learnt-clause database reduction, and
// incremental solving under assumptions with final-conflict extraction.
//
// It exists so the bespoke flow can *prove* properties of netlists (see
// internal/equiv) instead of sampling them: the equivalence engine
// Tseitin-encodes a netlist frame once and then discharges thousands of
// per-gate proof obligations as incremental solves under assumptions.
package sat

import (
	"context"
	"fmt"
	"sort"
)

// Var is a propositional variable, numbered from 0.
type Var int32

// Lit is a literal: variable 2*v for the positive phase, 2*v+1 negated.
type Lit int32

// LitUndef is the sentinel "no literal".
const LitUndef Lit = -1

// MkLit builds the literal of v with the given negation flag.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Pos returns the positive literal of v.
func Pos(v Var) Lit { return Lit(v) << 1 }

// Neg returns the negative literal of v.
func Neg(v Var) Lit { return Lit(v)<<1 | 1 }

// Var returns the variable of l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Negated reports whether l is the negative phase of its variable.
func (l Lit) Negated() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as v3 or ~v3.
func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.Negated() {
		return fmt.Sprintf("~v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// lbool is a three-valued assignment.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) not() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

// Status is the outcome of a Solve call.
type Status int

const (
	// Unknown means the solve was aborted (budget or context).
	Unknown Status = iota
	// Sat means a satisfying assignment was found (see Model).
	Sat
	// Unsat means the clauses plus assumptions are unsatisfiable
	// (see FailedAssumptions).
	Unsat
)

// String returns "sat", "unsat" or "unknown".
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Stats counts solver work across the lifetime of the instance.
type Stats struct {
	Solves       int64
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Learnts      int64 // learnt clauses currently in the database
	Restarts     int64
}

// clause is one disjunction. Learnt clauses carry an activity used by
// database reduction.
type clause struct {
	lits   []Lit
	act    float32
	learnt bool
	gone   bool // removed by reduceDB; slot is dead
}

// watch is one entry of a literal's watcher list: the clause reference
// and a blocker literal whose truth satisfies the clause cheaply.
type watch struct {
	cref    int32
	blocker Lit
}

// Solver is one incremental CDCL instance. Not safe for concurrent use;
// the equivalence engine gives each worker its own instance.
type Solver struct {
	clauses []clause
	watches [][]watch

	assign []lbool
	level  []int32
	reason []int32 // clause ref, or -1 for decisions/assumptions
	trail  []Lit
	lim    []int32 // trail index at each decision level
	qhead  int

	activity []float64
	varInc   float64
	order    heap // max-activity variable order
	phase    []bool

	seen     []bool
	unsatP   bool // permanently unsat at level 0
	conflict []Lit

	model    []lbool // the last Sat result's assignment, nil otherwise
	modelBuf []lbool // backing store of model, reused across solves

	maxLearnts   float64
	budget       int64 // conflict budget per Solve; 0 = unlimited
	stats        Stats
	learntClause []Lit // scratch
	minRemoved   []Lit // scratch: literals dropped by minimization
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1, maxLearnts: 4000}
}

// NewVar introduces a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assign))
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v, s.activity)
	return v
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assign) }

// SetBudget caps the number of conflicts a single Solve call may spend
// before returning Unknown. Zero (the default) means no cap.
func (s *Solver) SetBudget(conflicts int64) { s.budget = conflicts }

// Stats returns a snapshot of the work counters.
func (s *Solver) Stats() Stats { return s.stats }

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if l.Negated() {
		return v.not()
	}
	return v
}

// AddClause adds a disjunction of literals. It returns false when the
// clause system is already unsatisfiable at the top level (either this
// clause is empty after simplification, or an earlier contradiction was
// recorded). Clauses may only be added between Solve calls.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatP {
		return false
	}
	if len(s.lim) != 0 {
		panic("sat: AddClause while not at decision level 0") // panic-ok: incremental API misuse, not a solvable instance
	}
	// Simplify: sort, drop duplicates and false-at-level-0 literals,
	// detect tautologies and satisfied clauses.
	ls := append(s.learntClause[:0], lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		if l.Var() < 0 || int(l.Var()) >= len(s.assign) {
			panic(fmt.Sprintf("sat: clause uses unknown variable %d", l.Var())) // panic-ok: clause over undeclared variables is API misuse
		}
		if l == prev {
			continue
		}
		if l == prev.Not() || s.value(l) == lTrue {
			s.learntClause = ls[:0]
			return true // tautology or already satisfied
		}
		if s.value(l) == lFalse {
			continue // false at level 0: drop
		}
		out = append(out, l)
		prev = l
	}
	s.learntClause = ls[:0]
	switch len(out) {
	case 0:
		s.unsatP = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], -1)
		if s.propagate() != -1 {
			s.unsatP = true
			return false
		}
		return true
	}
	s.attach(append([]Lit(nil), out...), false)
	return true
}

// attach stores a clause and registers its first two literals as watches.
func (s *Solver) attach(lits []Lit, learnt bool) int32 {
	ref := int32(len(s.clauses))
	s.clauses = append(s.clauses, clause{lits: lits, learnt: learnt, act: 1})
	s.watches[lits[0]] = append(s.watches[lits[0]], watch{ref, lits[1]})
	s.watches[lits[1]] = append(s.watches[lits[1]], watch{ref, lits[0]})
	if learnt {
		s.stats.Learnts++
	}
	return ref
}

func (s *Solver) uncheckedEnqueue(l Lit, from int32) {
	v := l.Var()
	if l.Negated() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(len(s.lim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation until fixpoint. It returns the
// reference of a conflicting clause, or -1.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		fl := p.Not() // literal falsified by the new assignment
		ws := s.watches[fl]
		keep := ws[:0]
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				keep = append(keep, w)
				continue
			}
			c := &s.clauses[w.cref]
			if c.lits[0] == fl {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				keep = append(keep, watch{w.cref, first})
				continue
			}
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1]] = append(s.watches[c.lits[1]], watch{w.cref, first})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflicting.
			keep = append(keep, watch{w.cref, first})
			if s.value(first) == lFalse {
				keep = append(keep, ws[i+1:]...)
				s.watches[fl] = keep
				s.qhead = len(s.trail)
				return w.cref
			}
			s.uncheckedEnqueue(first, w.cref)
		}
		s.watches[fl] = keep
	}
	return -1
}

// analyze derives the first-UIP learnt clause from a conflict and returns
// it along with the backtrack level.
func (s *Solver) analyze(confl int32) ([]Lit, int32) {
	learnt := append(s.learntClause[:0], LitUndef)
	pathC := 0
	p := LitUndef
	idx := len(s.trail) - 1
	cur := int32(len(s.lim))

	for {
		c := &s.clauses[confl]
		if c.learnt {
			s.bumpClause(confl)
		}
		start := 0
		if p != LitUndef {
			start = 1
		}
		for j := start; j < len(c.lits); j++ {
			q := c.lits[j]
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= cur {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = false
		pathC--
		if pathC <= 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Self-subsumption minimization: a reason-implied literal whose whole
	// reason clause is already in the learnt set is redundant. Removed
	// literals stay marked seen during the loop (a literal implied by the
	// kept set still helps discharge later redundancy checks) and are
	// remembered so their marks can be cleared with the rest — leaking a
	// seen flag across conflicts silently strengthens future learnt
	// clauses into unsound ones.
	removed := s.minRemoved[:0]
	j := 1
	for i := 1; i < len(learnt); i++ {
		if !s.redundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		} else {
			removed = append(removed, learnt[i])
		}
	}
	learnt = learnt[:j]

	// Backtrack level: the highest level among the non-asserting literals.
	bt := int32(0)
	if len(learnt) > 1 {
		max := 1
		for k := 2; k < len(learnt); k++ {
			if s.level[learnt[k].Var()] > s.level[learnt[max].Var()] {
				max = k
			}
		}
		learnt[1], learnt[max] = learnt[max], learnt[1]
		bt = s.level[learnt[1].Var()]
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	for _, l := range removed {
		s.seen[l.Var()] = false
	}
	s.minRemoved = removed[:0]
	s.learntClause = learnt
	return learnt, bt
}

// redundant reports whether l is implied by the other seen literals via
// its reason clause (one-step self-subsumption).
func (s *Solver) redundant(l Lit) bool {
	ref := s.reason[l.Var()]
	if ref < 0 {
		return false
	}
	for _, q := range s.clauses[ref].lits {
		v := q.Var()
		if v == l.Var() {
			continue
		}
		if !s.seen[v] && s.level[v] > 0 {
			return false
		}
	}
	return true
}

// analyzeFinal computes the subset of assumptions responsible for forcing
// p false, storing it in s.conflict AS the failed assumption literals
// (p.Not() for the assumption under establishment, the trail literals
// for the implying assumptions) so FailedAssumptions hands callers the
// literals they passed in.
func (s *Solver) analyzeFinal(p Lit) {
	s.conflict = s.conflict[:0]
	s.conflict = append(s.conflict, p.Not())
	if len(s.lim) == 0 {
		return
	}
	s.seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= int(s.lim[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] < 0 {
			s.conflict = append(s.conflict, s.trail[i])
		} else {
			for _, q := range s.clauses[s.reason[v]].lits {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
}

func (s *Solver) cancelUntil(lvl int32) {
	if int32(len(s.lim)) <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= int(s.lim[lvl]); i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = -1
		s.order.insert(v, s.activity)
	}
	s.trail = s.trail[:s.lim[lvl]]
	s.lim = s.lim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v, s.activity)
}

func (s *Solver) bumpClause(ref int32) {
	c := &s.clauses[ref]
	c.act += 1
	if c.act > 1e20 {
		for i := range s.clauses {
			if s.clauses[i].learnt {
				s.clauses[i].act *= 1e-20
			}
		}
	}
}

// decayVar implements VSIDS decay by inflating the increment.
func (s *Solver) decayVar() { s.varInc /= 0.95 }

// pickBranch selects the unassigned variable with the highest activity,
// using the saved phase.
func (s *Solver) pickBranch() Lit {
	for {
		v, ok := s.order.removeMax(s.activity)
		if !ok {
			return LitUndef
		}
		if s.assign[v] == lUndef {
			return MkLit(v, !s.phase[v])
		}
	}
}

// reduceDB removes roughly half of the learnt clauses, lowest activity
// first, sparing binary clauses and clauses that are reasons on the trail.
func (s *Solver) reduceDB() {
	locked := make(map[int32]bool)
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r >= 0 {
			locked[r] = true
		}
	}
	type cand struct {
		ref int32
		act float32
	}
	var cands []cand
	for i := range s.clauses {
		c := &s.clauses[i]
		if c.learnt && !c.gone && len(c.lits) > 2 && !locked[int32(i)] {
			cands = append(cands, cand{int32(i), c.act})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].act < cands[b].act })
	for _, cd := range cands[:len(cands)/2] {
		s.detach(cd.ref)
	}
}

// detach removes a clause from its watcher lists and marks it dead.
func (s *Solver) detach(ref int32) {
	c := &s.clauses[ref]
	for _, l := range c.lits[:2] {
		ws := s.watches[l]
		for i := range ws {
			if ws[i].cref == ref {
				ws[i] = ws[len(ws)-1]
				s.watches[l] = ws[:len(ws)-1]
				break
			}
		}
	}
	c.gone = true
	c.lits = nil
	s.stats.Learnts--
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i >= 1<<(k-1) && i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// ctxCheckMask throttles context polling: once per 256 conflicts.
const ctxCheckMask = 255

// Solve decides satisfiability of the clause database under the given
// assumption literals. It returns Sat (model available via Value/Model),
// Unsat (failed assumption subset via FailedAssumptions), or Unknown when
// the conflict budget set by SetBudget ran out. Cancellation or deadline
// expiry of ctx aborts the search with Unknown and the context error. The
// solver remains usable for further Solve and AddClause calls afterwards.
func (s *Solver) Solve(ctx context.Context, assumptions ...Lit) (Status, error) {
	if s.unsatP {
		s.conflict = s.conflict[:0]
		return Unsat, nil
	}
	s.stats.Solves++
	s.model = nil
	s.conflict = s.conflict[:0]
	defer s.cancelUntil(0)

	var conflicts int64
	restart := int64(1)
	restartBudget := luby(restart) * 100

	for {
		confl := s.propagate()
		if confl >= 0 {
			s.stats.Conflicts++
			conflicts++
			if len(s.lim) == 0 {
				// Conflict without decisions: check whether assumptions
				// are involved; with none on the trail the database
				// itself is contradictory.
				s.unsatP = true
				return Unsat, nil
			}
			if int32(len(s.lim)) <= int32(len(assumptions)) {
				// Conflict at assumption level: extract the failing
				// subset from the conflicting clause.
				s.finalFromClause(confl, assumptions)
				return Unsat, nil
			}
			learnt, bt := s.analyze(confl)
			if bt < int32(len(assumptions)) {
				bt = int32(len(assumptions))
				if bt > int32(len(s.lim)) {
					bt = int32(len(s.lim))
				}
			}
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.cancelUntil(0)
				if s.value(learnt[0]) == lFalse {
					s.unsatP = true
					return Unsat, nil
				}
				if s.value(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], -1)
				}
				// Re-establish assumption levels on the next loop.
			} else {
				ref := s.attach(append([]Lit(nil), learnt...), true)
				if s.value(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], ref)
				}
			}
			s.decayVar()
			if conflicts&ctxCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return Unknown, err
				}
			}
			if s.budget > 0 && conflicts >= s.budget {
				return Unknown, nil
			}
			if conflicts >= restartBudget {
				restart++
				restartBudget = conflicts + luby(restart)*100
				s.stats.Restarts++
				s.cancelUntil(int32(min(len(assumptions), len(s.lim))))
			}
			if float64(s.stats.Learnts) > s.maxLearnts {
				s.reduceDB()
				s.maxLearnts *= 1.3
			}
			continue
		}

		// No conflict: extend assumptions, then decide.
		if int(s.qhead) != len(s.trail) {
			continue
		}
		if len(s.lim) < len(assumptions) {
			p := assumptions[len(s.lim)]
			if p.Var() < 0 || int(p.Var()) >= len(s.assign) {
				panic(fmt.Sprintf("sat: assumption uses unknown variable %d", p.Var())) // panic-ok: assumption over undeclared variables is API misuse
			}
			switch s.value(p) {
			case lTrue:
				s.lim = append(s.lim, int32(len(s.trail)))
			case lFalse:
				s.analyzeFinal(p.Not())
				// conflict holds ~p plus the implying assumptions; report
				// them as the failed assumption set.
				return Unsat, nil
			default:
				s.lim = append(s.lim, int32(len(s.trail)))
				s.uncheckedEnqueue(p, -1)
			}
			continue
		}
		next := s.pickBranch()
		if next == LitUndef {
			// Full assignment: record the model.
			s.modelBuf = append(s.modelBuf[:0], s.assign...)
			s.model = s.modelBuf
			return Sat, nil
		}
		s.stats.Decisions++
		s.lim = append(s.lim, int32(len(s.trail)))
		s.uncheckedEnqueue(next, -1)
	}
}

// finalFromClause seeds analyzeFinal-style extraction from a conflicting
// clause discovered while the trail holds only assumptions and their
// consequences.
func (s *Solver) finalFromClause(confl int32, assumptions []Lit) {
	s.conflict = s.conflict[:0]
	for _, q := range s.clauses[confl].lits {
		if s.level[q.Var()] > 0 {
			s.seen[q.Var()] = true
		}
	}
	base := 0
	if len(s.lim) > 0 {
		base = int(s.lim[0])
	}
	for i := len(s.trail) - 1; i >= base; i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] < 0 {
			s.conflict = append(s.conflict, s.trail[i])
		} else {
			for _, q := range s.clauses[s.reason[v]].lits {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	// Clear any remaining marks (literals below the assumption base).
	for _, q := range s.clauses[confl].lits {
		s.seen[q.Var()] = false
	}
	_ = assumptions
}

// Value returns the model value of v after a Sat result. It panics when
// no model is available.
func (s *Solver) Value(v Var) bool {
	if s.model == nil {
		panic("sat: Value called without a model") // panic-ok: Value without a model is API misuse, documented on the method
	}
	return s.model[v] == lTrue
}

// Model returns the satisfying assignment as a bool slice indexed by
// variable, or nil when the last Solve was not Sat.
func (s *Solver) Model() []bool {
	if s.model == nil {
		return nil
	}
	m := make([]bool, len(s.model))
	for i, v := range s.model {
		m[i] = v == lTrue
	}
	return m
}

// FailedAssumptions returns the subset of the last Solve's assumptions
// that was proven jointly contradictory (analogous to MiniSat's final
// conflict clause, negated). Valid after an Unsat result.
func (s *Solver) FailedAssumptions() []Lit {
	return append([]Lit(nil), s.conflict...)
}

// heap is a max-heap over variable activities with position tracking.
type heap struct {
	data []Var
	pos  []int32 // -1 when absent
}

func (h *heap) ensure(v Var) {
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
}

func (h *heap) insert(v Var, act []float64) {
	h.ensure(v)
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, v)
	h.pos[v] = int32(len(h.data) - 1)
	h.up(int(h.pos[v]), act)
}

func (h *heap) update(v Var, act []float64) {
	h.ensure(v)
	if h.pos[v] >= 0 {
		h.up(int(h.pos[v]), act)
	}
}

func (h *heap) removeMax(act []float64) (Var, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	v := h.data[0]
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.pos[v] = -1
	if len(h.data) > 0 {
		h.data[0] = last
		h.pos[last] = 0
		h.down(0, act)
	}
	return v, true
}

func (h *heap) up(i int, act []float64) {
	v := h.data[i]
	for i > 0 {
		p := (i - 1) / 2
		if act[h.data[p]] >= act[v] {
			break
		}
		h.data[i] = h.data[p]
		h.pos[h.data[i]] = int32(i)
		i = p
	}
	h.data[i] = v
	h.pos[v] = int32(i)
}

func (h *heap) down(i int, act []float64) {
	v := h.data[i]
	n := len(h.data)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && act[h.data[c+1]] > act[h.data[c]] {
			c++
		}
		if act[h.data[c]] <= act[v] {
			break
		}
		h.data[i] = h.data[c]
		h.pos[h.data[i]] = int32(i)
		i = c
	}
	h.data[i] = v
	h.pos[v] = int32(i)
}
