package sat

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
)

// searchDigest is the SHA-256 of every outcome TestSearchPinned records.
// It changes only when the search does: a different decision, propagation
// order, learnt clause, restart or learnt-clause reduction shows up in
// some model, failed-assumption set or Stats delta. A change meant to
// leave the search alone (clause storage, propagation speed) must keep
// it; a change meant to alter the search re-records it and says so.
const searchDigest = "84b1f7f3a913b945568ae770024bd7b89480d01097f43f5702c6dc6f1b643724"

// pinLog hashes each Solve's outcome and the Stats it spent.
type pinLog struct {
	t     *testing.T
	h     hash.Hash
	last  Stats
	buf   []byte
	solve int
}

func (p *pinLog) add(ok bool) {
	if ok {
		p.h.Write([]byte{1})
	} else {
		p.h.Write([]byte{0})
	}
}

func (p *pinLog) run(s *Solver, assume []Lit) Status {
	p.t.Helper()
	st, err := s.Solve(context.Background(), assume...)
	if err != nil {
		p.t.Fatalf("solve %d: %v", p.solve, err)
	}
	p.solve++
	b := append(p.buf[:0], byte(st))
	switch st {
	case Sat:
		for _, v := range s.Model() {
			if v {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	case Unsat:
		for _, l := range s.FailedAssumptions() {
			b = binary.LittleEndian.AppendUint32(b, uint32(l))
		}
	}
	now := s.Stats()
	for _, d := range []int64{
		now.Solves - p.last.Solves,
		now.Decisions - p.last.Decisions,
		now.Propagations - p.last.Propagations,
		now.Conflicts - p.last.Conflicts,
		now.Learnts - p.last.Learnts,
		now.Restarts - p.last.Restarts,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	p.last = now
	p.buf = b
	p.h.Write(b)
	return st
}

// pinClause draws a clause over s's variables: mostly binary and ternary,
// some long, a few units.
func pinClause(rng *rand.Rand, s *Solver) []Lit {
	w := 2
	switch r := rng.Intn(100); {
	case r < 2:
		w = 1
	case r < 30:
		w = 2
	case r < 75:
		w = 3
	default:
		w = 4 + rng.Intn(5)
	}
	cl := make([]Lit, w)
	for i := range cl {
		cl[i] = MkLit(Var(rng.Intn(s.NumVars())), rng.Intn(2) == 0)
	}
	return cl
}

// pinSequence is one small incremental run: clauses and variables are
// added between solves, each solve has random assumptions, and some run
// under a conflict budget.
func pinSequence(p *pinLog, rng *rand.Rand) {
	s := New()
	p.last = Stats{}
	nv := 20 + rng.Intn(60)
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	for i := 0; i < nv*5/2; i++ {
		p.add(s.AddClause(pinClause(rng, s)...))
	}
	for q := 0; q < 24; q++ {
		s.SetBudget(0)
		if rng.Intn(4) == 0 {
			s.SetBudget(int64(1 + rng.Intn(12)))
		}
		assume := make([]Lit, rng.Intn(7))
		for i := range assume {
			assume[i] = MkLit(Var(rng.Intn(s.NumVars())), rng.Intn(2) == 0)
		}
		p.run(s, assume)
		switch rng.Intn(3) {
		case 0:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				p.add(s.AddClause(pinClause(rng, s)...))
			}
		case 1:
			s.NewVar()
		}
	}
}

// pinHard runs budgeted solves under assumptions on one planted random
// 3-SAT instance near the phase transition, with binary and long clauses
// mixed in, until it has spent enough conflicts to reduce its learnt
// clauses and rescale its variable activities.
func pinHard(p *pinLog, rng *rand.Rand) *Solver {
	s := New()
	p.last = Stats{}
	const nv = 220
	hidden := make([]bool, nv)
	for i := range hidden {
		hidden[i] = rng.Intn(2) == 0
	}
	lit := func() Lit { return MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 0) }
	// Clauses the hidden assignment satisfies keep the instance
	// satisfiable, so the solves run on instead of ending in a
	// top-level contradiction.
	planted := func(w int) []Lit {
		for {
			cl := make([]Lit, w)
			for i := range cl {
				cl[i] = lit()
			}
			for _, l := range cl {
				if hidden[l.Var()] != l.Negated() {
					return cl
				}
			}
		}
	}
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	for i := 0; i < nv*42/10; i++ {
		p.add(s.AddClause(planted(3)...))
	}
	for i := 0; i < nv/6; i++ {
		p.add(s.AddClause(planted(2)...))
	}
	for i := 0; i < nv/10; i++ {
		p.add(s.AddClause(planted(6)...))
	}
	for q := 0; q < 100 && s.Stats().Conflicts < 7000; q++ {
		s.SetBudget(900)
		if q%5 == 4 {
			s.SetBudget(40)
		}
		assume := make([]Lit, rng.Intn(9))
		for i := range assume {
			assume[i] = lit()
		}
		p.run(s, assume)
	}
	return s
}

// TestSearchPinned pins the solver's search. It runs seeded random
// incremental sequences (unit, binary and long clauses, assumptions,
// conflict budgets, clauses and variables added between solves) and one
// instance hard enough to trigger learnt-clause reduction and activity
// rescaling, and compares the SHA-256 of every Solve's status, model,
// failed assumptions and Stats delta with searchDigest.
func TestSearchPinned(t *testing.T) {
	p := &pinLog{t: t, h: sha256.New()}
	for seed := int64(0); seed < 300; seed++ {
		pinSequence(p, rand.New(rand.NewSource(seed)))
	}
	s := pinHard(p, rand.New(rand.NewSource(7)))
	// Guard the coverage the digest relies on: more than ~4,490
	// conflicts push the activity increment past the 1e100 rescale
	// point, and maxLearnts grows only when reduceDB runs.
	if c := s.Stats().Conflicts; c < 4500 {
		t.Fatalf("hard instance spent %d conflicts, want at least 4500", c)
	}
	if s.varInc >= 1e100 {
		t.Fatalf("activities never rescaled (varInc %g)", s.varInc)
	}
	if s.maxLearnts <= 4000 {
		t.Fatal("learnt clauses never reduced")
	}
	if got := hex.EncodeToString(p.h.Sum(nil)); got != searchDigest {
		t.Fatalf("search digest %s, want %s: the search changed", got, searchDigest)
	}
}
