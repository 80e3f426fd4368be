package sat

import (
	"crypto/sha256"
	"math/rand"
	"testing"
)

// pigeons adds, under the activation literal it returns, the formula
// "n+1 pigeons sit in n holes, at most one per hole": unsatisfiable
// when the literal is assumed, and hard enough for resolution that
// solving it spends conflicts (for n = 8, enough to reduce learnt
// clauses and rescale activities before a budget of 6000 runs out).
func pigeons(s *Solver, n int) Lit {
	on := Pos(s.NewVar())
	base := Var(s.NumVars())
	at := func(p, h int) Lit { return Pos(base + Var(p*n+h)) }
	for i := 0; i < (n+1)*n; i++ {
		s.NewVar()
	}
	for p := 0; p <= n; p++ {
		cl := []Lit{on.Not()}
		for h := 0; h < n; h++ {
			cl = append(cl, at(p, h))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for p := 0; p <= n; p++ {
			for q := p + 1; q <= n; q++ {
				s.AddClause(on.Not(), at(p, h).Not(), at(q, h).Not())
			}
		}
	}
	return on
}

// resetSequence is one seeded incremental run on s, logged to p. It
// starts with a solve of pigeons under whatever budget s has, so a
// budget Reset left behind shows as an early Unknown. A hard run is that
// solve alone, on pigeons(8) under a budget of 6000. Any other run then
// retires the pigeons and adds clauses (units included) and variables
// between solves under random assumptions and budgets. It ends with a
// budget set, and on odd seeds with a top-level contradiction.
func resetSequence(p *pinLog, s *Solver, seed int64, hard bool) {
	rng := rand.New(rand.NewSource(seed))
	p.last = Stats{}
	if hard {
		on := pigeons(s, 8)
		s.SetBudget(6000)
		p.run(s, []Lit{on})
		return
	}
	on := pigeons(s, 5)
	p.run(s, []Lit{on})
	p.add(s.AddClause(on.Not()))
	nv := 20 + rng.Intn(40)
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	for i := 0; i < nv*2; i++ {
		p.add(s.AddClause(pinClause(rng, s)...))
	}
	for q := 0; q < 16; q++ {
		s.SetBudget(0)
		if rng.Intn(3) == 0 {
			s.SetBudget(int64(1 + rng.Intn(12)))
		}
		assume := make([]Lit, rng.Intn(7))
		for i := range assume {
			assume[i] = MkLit(Var(rng.Intn(s.NumVars())), rng.Intn(2) == 0)
		}
		p.run(s, assume)
		if rng.Intn(2) == 0 {
			p.add(s.AddClause(pinClause(rng, s)...))
		} else {
			s.NewVar()
		}
	}
	s.SetBudget(int64(1 + rng.Intn(12)))
	if seed%2 == 1 {
		v := s.NewVar()
		p.add(s.AddClause(Pos(v)))
		p.add(s.AddClause(Neg(v)))
		p.run(s, nil)
	}
}

// TestResetMatchesNew replays seeded incremental sequences on one solver
// that Reset returns to New's state between them, and on a new solver
// each time. Right after Reset the two must report the same variables,
// Stats, model and failed assumptions, and then the same status, model,
// failed assumptions and Stats from every solve.
func TestResetMatchesNew(t *testing.T) {
	// Guard the coverage the comparison relies on: each piece of state
	// Reset clears must have been dirty before some Reset.
	dirty := []struct {
		what string
		in   func(s *Solver) bool
		seen bool
	}{
		{what: "unsat at level 0", in: func(s *Solver) bool { return s.unsatP }},
		{what: "budget", in: func(s *Solver) bool { return s.budget != 0 }},
		{what: "level-0 trail", in: func(s *Solver) bool { return s.qhead > 0 }},
		{what: "grown learnt limit", in: func(s *Solver) bool { return s.maxLearnts > 4000 }},
		{what: "activity increment", in: func(s *Solver) bool { return s.varInc != 1 }},
		{what: "model", in: func(s *Solver) bool { return s.model != nil }},
		{what: "failed assumptions", in: func(s *Solver) bool { return len(s.conflict) > 0 }},
		{what: "heap", in: func(s *Solver) bool { return len(s.order.data) > 0 }},
		{what: "decision cursor", in: func(s *Solver) bool { return s.next > 0 }},
	}
	reused := New()
	for seed := int64(0); seed < 60; seed++ {
		for i := range dirty {
			dirty[i].seen = dirty[i].seen || dirty[i].in(reused)
		}
		reused.Reset()
		fresh := New()
		if reused.NumVars() != fresh.NumVars() || reused.Stats() != fresh.Stats() ||
			reused.Model() != nil || len(reused.FailedAssumptions()) != 0 {
			t.Fatalf("seed %d: state after Reset differs from New", seed)
		}
		hard := seed >= 58 // two in a row: the second starts from a grown learnt limit
		got := &pinLog{t: t, h: sha256.New()}
		want := &pinLog{t: t, h: sha256.New()}
		resetSequence(got, reused, seed, hard)
		resetSequence(want, fresh, seed, hard)
		if string(got.h.Sum(nil)) != string(want.h.Sum(nil)) {
			t.Fatalf("seed %d: a reset solver's solves differ from a new solver's", seed)
		}
	}
	for _, d := range dirty {
		if !d.seen {
			t.Errorf("no Reset started from a dirty %s", d.what)
		}
	}
}
