// Package sat is a pure-Go CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat lineage: two-literal watched propagation over one
// flat clause arena, with binary clauses propagated from their watch
// entries alone, VSIDS-style variable activity with phase saving (a
// heap over the variables conflicts have bumped, creation order for the
// rest), first-UIP conflict analysis with clause learning and basic
// self-subsumption minimization, Luby restarts, activity-driven
// learnt-clause database reduction, and incremental solving under
// assumptions with final-conflict extraction.
//
// It exists so the bespoke flow can *prove* properties of netlists (see
// internal/equiv) instead of sampling them: the equivalence engine
// Tseitin-encodes a netlist frame once and then discharges thousands of
// per-gate proof obligations as incremental solves under assumptions.
package sat

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// Clauses live in one arena, each addressed by the offset of its header
// word: the header holds the literal count shifted left by hdrBits plus
// the flags below, the next word the clause activity as float32 bits
// (counted for learnt clauses, used by database reduction), and then the
// literals follow.
const (
	hdrLearnt  = 1 // a learnt clause
	hdrDeleted = 2 // detached by reduceDB; its words stay as garbage
	hdrBits    = 2
	hdrWords   = 2 // header and activity words before the literals
)

// watch is one entry of a literal's watcher list: the clause's arena
// offset shifted left once, with the low bit set for a binary clause, and
// a blocker literal whose truth satisfies the clause cheaply. A binary
// clause's blocker is always its other literal, so it propagates from the
// watch entry alone.
type watch struct {
	ref     uint32
	blocker Lit
}

// watchRef packs a clause's arena offset and binary flag into a
// watch's ref.
func watchRef(ref int32, size int) uint32 {
	w := uint32(ref) << 1
	if size == 2 {
		w |= 1
	}
	return w
}

// Solver is one incremental CDCL instance. Not safe for concurrent use;
// the equivalence engine gives each worker its own instance.
type Solver struct {
	arena   []Lit   // every clause, in the layout described above hdrLearnt
	learnts []int32 // live learnt clauses, in creation order
	watches [][]watch

	vals   []lbool // indexed by literal: vals[l] is l's value
	level  []int32
	reason []int32 // clause ref, or -1 for decisions/assumptions
	trail  []Lit
	lim    []int32 // trail index at each decision level
	qhead  int

	activity []float64
	varInc   float64
	order    heap // max-activity order of the bumped variables
	next     Var  // no unassigned never-bumped variable lies below it
	phase    []bool

	seen     []bool
	unsatP   bool // permanently unsat at level 0
	conflict []Lit

	model    []lbool // the last Sat result's literal values, nil otherwise
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

// Reset returns s to New's state: no variables or clauses, zero Stats
// and budget, and no model. Every slice keeps its storage, each
// literal's watch list included, so a caller that solves a sequence of
// similar problems (the k-induction ladder) does not reallocate them.
func (s *Solver) Reset() {
	ws := s.watches[:cap(s.watches)]
	for i := range ws {
		ws[i] = ws[i][:0]
	}
	*s = Solver{
		arena:        s.arena[:0],
		learnts:      s.learnts[:0],
		watches:      ws[:0],
		vals:         s.vals[:0],
		level:        s.level[:0],
		reason:       s.reason[:0],
		trail:        s.trail[:0],
		lim:          s.lim[:0],
		activity:     s.activity[:0],
		varInc:       1,
		order:        heap{data: s.order.data[:0], pos: s.order.pos[:0]},
		phase:        s.phase[:0],
		seen:         s.seen[:0],
		conflict:     s.conflict[:0],
		modelBuf:     s.modelBuf[:0],
		maxLearnts:   4000,
		learntClause: s.learntClause[:0],
		minRemoved:   s.minRemoved[:0],
	}
}

// reserve returns s with capacity for at least n elements. When it must
// reallocate it at least doubles the capacity: append grows a large
// slice about 1.25x at a time, so over a growing instance it allocates
// about five times the final storage, where doubling allocates about
// twice.
func reserve[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	t := make([]T, len(s), max(2*cap(s), n))
	copy(t, s)
	return t
}

// NewVar introduces a fresh variable. It starts never bumped, at an
// index no lower than the decision cursor s.next.
func (s *Solver) NewVar() Var {
	v := Var(len(s.level))
	n := int(v) + 1
	s.vals = append(reserve(s.vals, 2*n), lUndef, lUndef)
	s.level = append(reserve(s.level, n), 0)
	s.reason = append(reserve(s.reason, n), -1)
	s.activity = append(reserve(s.activity, n), 0)
	s.phase = append(reserve(s.phase, n), false)
	s.seen = append(reserve(s.seen, n), false)
	// The two new lists are nil, or lists Reset emptied with their
	// storage kept.
	s.watches = reserve(s.watches, 2*n)[:2*n]
	s.order.pos = append(reserve(s.order.pos, n), -1)
	// The trail and the heap hold each variable at most once, so their
	// appends never reallocate.
	s.trail = reserve(s.trail, n)
	s.order.data = reserve(s.order.data, n)
	return v
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.level) }

// SetBudget caps the number of conflicts a single Solve call may spend
// before returning Unknown. Zero (the default) means no cap.
func (s *Solver) SetBudget(conflicts int64) { s.budget = conflicts }

// Stats returns a snapshot of the work counters.
func (s *Solver) Stats() Stats { return s.stats }

func (s *Solver) value(l Lit) lbool { return s.vals[l] }

// lits returns the literals of the clause at arena offset ref.
func (s *Solver) lits(ref int32) []Lit {
	start := ref + hdrWords
	return s.arena[start : start+int32(s.arena[ref]>>hdrBits)]
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
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		if l.Var() < 0 || int(l.Var()) >= s.NumVars() {
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
	s.attach(out, false)
	return true
}

// attach copies a clause into the arena and registers its first two
// literals as watches. It returns the clause's arena offset.
func (s *Solver) attach(lits []Lit, learnt bool) int32 {
	ref := int32(len(s.arena))
	hdr := Lit(len(lits)) << hdrBits
	if learnt {
		hdr |= hdrLearnt
		s.learnts = append(reserve(s.learnts, len(s.learnts)+1), ref)
		s.stats.Learnts++
	}
	s.arena = append(reserve(s.arena, len(s.arena)+hdrWords+len(lits)), hdr, Lit(math.Float32bits(1)))
	s.arena = append(s.arena, lits...)
	w := watchRef(ref, len(lits))
	s.watches[lits[0]] = append(s.watches[lits[0]], watch{w, lits[1]})
	s.watches[lits[1]] = append(s.watches[lits[1]], watch{w, lits[0]})
	return ref
}

func (s *Solver) uncheckedEnqueue(l Lit, from int32) {
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	v := l.Var()
	s.level[v] = int32(len(s.lim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation until fixpoint. It returns the
// reference of a conflicting clause, or -1.
//
// A binary clause is never loaded unless it conflicts: its watch entry
// holds the other literal. Its literal order in the arena is therefore
// left alone, except that a conflict writes [other, falsified], the order
// a long clause has after the same visit, which conflict analysis reads.
func (s *Solver) propagate() int32 {
	vals := s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		fl := p.Not() // literal falsified by the new assignment
		ws := s.watches[fl]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			bv := vals[w.blocker]
			if bv == lTrue {
				ws[j] = w
				j++
				continue
			}
			ref := int32(w.ref >> 1)
			if w.ref&1 != 0 {
				ws[j] = w
				j++
				if bv == lFalse {
					s.arena[ref+hdrWords], s.arena[ref+hdrWords+1] = w.blocker, fl
					j += copy(ws[j:], ws[i+1:])
					s.watches[fl] = ws[:j]
					s.qhead = len(s.trail)
					return ref
				}
				s.uncheckedEnqueue(w.blocker, ref)
				continue
			}
			lits := s.lits(ref)
			if lits[0] == fl {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = watch{w.ref, first}
				j++
				continue
			}
			moved := false
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1]] = append(s.watches[lits[1]], watch{w.ref, first})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflicting.
			ws[j] = watch{w.ref, first}
			j++
			if vals[first] == lFalse {
				j += copy(ws[j:], ws[i+1:])
				s.watches[fl] = ws[:j]
				s.qhead = len(s.trail)
				return ref
			}
			s.uncheckedEnqueue(first, ref)
		}
		s.watches[fl] = ws[:j]
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
		if s.arena[confl]&hdrLearnt != 0 {
			s.bumpClause(confl)
		}
		lits := s.lits(confl)
		switch {
		case p == LitUndef:
			// The conflicting clause: every literal.
		case len(lits) > 2 || lits[0] == p:
			// A reason: every literal but the implied p. Propagation
			// keeps p first in a long clause; a binary clause's order is
			// not maintained.
			lits = lits[1:]
		default:
			lits = lits[:1] // a binary reason with p second
		}
		for _, q := range lits {
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
	for _, q := range s.lits(ref) {
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
			for _, q := range s.lits(s.reason[v]) {
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
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Negated()
		s.vals[l], s.vals[l^1] = lUndef, lUndef
		s.reason[v] = -1
		if s.activity[v] > 0 {
			s.order.insert(v, s.activity[v])
		} else if v < s.next {
			s.next = v
		}
	}
	s.trail = s.trail[:s.lim[lvl]]
	s.lim = s.lim[:lvl]
	s.qhead = len(s.trail)
}

// bumpVar raises v's activity. A variable with activity above 0 is
// bumped: it is decided from the heap, which it joins here if it is
// unassigned (analysis bumps only assigned variables, which cancelUntil
// inserts once they are unassigned).
func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		// An activity that underflows to 0 makes its variable never
		// bumped again: it leaves the heap and, if unassigned, pulls the
		// cursor back to it.
		for i := range s.activity {
			s.activity[i] *= 1e-100
			if s.activity[i] == 0 && Var(i) < s.next && s.vals[Pos(Var(i))] == lUndef {
				s.next = Var(i)
			}
		}
		s.order.scale(1e-100)
		s.varInc *= 1e-100
	}
	if s.order.pos[v] >= 0 {
		s.order.update(v, s.activity[v])
	} else if s.vals[Pos(v)] == lUndef {
		s.order.insert(v, s.activity[v])
	}
}

// bumpClause counts one more use of a clause in conflict analysis. The
// count is a float32 and so stops growing at 2^24, far below any point
// that would need rescaling.
func (s *Solver) bumpClause(ref int32) {
	s.arena[ref+1] = Lit(math.Float32bits(s.clauseAct(ref) + 1))
}

func (s *Solver) clauseAct(ref int32) float32 {
	return math.Float32frombits(uint32(s.arena[ref+1]))
}

// decayVar implements VSIDS decay by inflating the increment.
func (s *Solver) decayVar() { s.varInc /= 0.95 }

// pickBranch selects the unassigned variable with the highest activity,
// using the saved phase. Every unassigned bumped variable is in the
// heap, so once the heap holds none, every unassigned variable has
// activity 0 and the lowest-numbered one is decided: the cursor only
// has to skip assigned variables.
func (s *Solver) pickBranch() Lit {
	for {
		v, ok := s.order.removeMax()
		if !ok {
			break
		}
		if s.vals[Pos(v)] == lUndef {
			return MkLit(v, !s.phase[v])
		}
	}
	for ; int(s.next) < len(s.level); s.next++ {
		if v := s.next; s.vals[Pos(v)] == lUndef {
			return MkLit(v, !s.phase[v])
		}
	}
	return LitUndef
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
	for _, ref := range s.learnts {
		if s.arena[ref]>>hdrBits > 2 && !locked[ref] {
			cands = append(cands, cand{ref, s.clauseAct(ref)})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].act < cands[b].act })
	for _, cd := range cands[:len(cands)/2] {
		s.detach(cd.ref)
	}
	live := s.learnts[:0]
	for _, ref := range s.learnts {
		if s.arena[ref]&hdrDeleted == 0 {
			live = append(live, ref)
		}
	}
	s.learnts = live
}

// detach removes a long clause from its watcher lists and marks it
// deleted.
func (s *Solver) detach(ref int32) {
	lits := s.lits(ref)
	w := watchRef(ref, len(lits))
	for _, l := range lits[:2] {
		ws := s.watches[l]
		for i := range ws {
			if ws[i].ref == w {
				ws[i] = ws[len(ws)-1]
				s.watches[l] = ws[:len(ws)-1]
				break
			}
		}
	}
	s.arena[ref] |= hdrDeleted
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
				s.finalFromClause(confl)
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
				ref := s.attach(learnt, true)
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
			if p.Var() < 0 || int(p.Var()) >= s.NumVars() {
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
			s.modelBuf = append(reserve(s.modelBuf[:0], len(s.vals)), s.vals...)
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
func (s *Solver) finalFromClause(confl int32) {
	s.conflict = s.conflict[:0]
	for _, q := range s.lits(confl) {
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
			for _, q := range s.lits(s.reason[v]) {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	// Clear any remaining marks (literals below the assumption base).
	for _, q := range s.lits(confl) {
		s.seen[q.Var()] = false
	}
}

// Value returns the model value of v after a Sat result. It panics when
// no model is available.
func (s *Solver) Value(v Var) bool {
	if s.model == nil {
		panic("sat: Value called without a model") // panic-ok: Value without a model is API misuse, documented on the method
	}
	return s.model[Pos(v)] == lTrue
}

// Model returns the satisfying assignment as a bool slice indexed by
// variable, or nil when the last Solve was not Sat.
func (s *Solver) Model() []bool {
	if s.model == nil {
		return nil
	}
	m := make([]bool, len(s.model)/2)
	for i := range m {
		m[i] = s.model[Pos(Var(i))] == lTrue
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
// It holds the bumped variables, each unassigned one among them.
// Each entry carries its variable's activity, kept equal to the solver's
// activity array, so comparisons read the heap alone.
type heap struct {
	data []heapEntry
	pos  []int32 // indexed by variable; -1 when absent
}

type heapEntry struct {
	act float64
	v   Var
}

func (h *heap) insert(v Var, act float64) {
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, heapEntry{act, v})
	h.up(len(h.data) - 1)
}

// update records v's raised activity.
func (h *heap) update(v Var, act float64) {
	if i := h.pos[v]; i >= 0 {
		h.data[i].act = act
		h.up(int(i))
	}
}

// scale multiplies every entry's activity by f, as the solver does its
// activity array, and drops the entries that underflow to 0. Scaling
// keeps the heap order; dropping entries rebuilds it.
func (h *heap) scale(f float64) {
	kept := h.data[:0]
	for _, e := range h.data {
		if e.act *= f; e.act > 0 {
			kept = append(kept, e)
		} else {
			h.pos[e.v] = -1
		}
	}
	if len(kept) == len(h.data) {
		return
	}
	h.data = kept
	for i, e := range kept {
		h.pos[e.v] = int32(i)
	}
	for i := len(kept)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *heap) removeMax() (Var, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	v := h.data[0].v
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.pos[v] = -1
	if len(h.data) > 0 {
		h.data[0] = last
		h.down(0)
	}
	return v, true
}

func (h *heap) up(i int) {
	e := h.data[i]
	for i > 0 {
		p := (i - 1) / 2
		if h.data[p].act >= e.act {
			break
		}
		h.data[i] = h.data[p]
		h.pos[h.data[i].v] = int32(i)
		i = p
	}
	h.data[i] = e
	h.pos[e.v] = int32(i)
}

func (h *heap) down(i int) {
	e := h.data[i]
	n := len(h.data)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.data[c+1].act > h.data[c].act {
			c++
		}
		if h.data[c].act <= e.act {
			break
		}
		h.data[i] = h.data[c]
		h.pos[h.data[i].v] = int32(i)
		i = c
	}
	h.data[i] = e
	h.pos[e.v] = int32(i)
}
