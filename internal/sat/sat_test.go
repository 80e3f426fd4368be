package sat

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Pos(a), Pos(b))
	s.AddClause(Neg(a))
	st, err := s.Solve(context.Background())
	if err != nil || st != Sat {
		t.Fatalf("Solve = %v, %v", st, err)
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("model a=%v b=%v, want a=false b=true", s.Value(a), s.Value(b))
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Pos(a))
	if ok := s.AddClause(Neg(a)); ok {
		t.Fatal("AddClause(~a) after unit a should report top-level unsat")
	}
	st, err := s.Solve(context.Background())
	if err != nil || st != Unsat {
		t.Fatalf("Solve = %v, %v", st, err)
	}
}

func TestXorChainSat(t *testing.T) {
	// x0 ^ x1 = 1, x1 ^ x2 = 1, ... forces alternating values.
	s := New()
	const n = 20
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	addXor1 := func(a, b Var) {
		s.AddClause(Pos(a), Pos(b))
		s.AddClause(Neg(a), Neg(b))
	}
	for i := 0; i+1 < n; i++ {
		addXor1(vars[i], vars[i+1])
	}
	s.AddClause(Pos(vars[0]))
	st, err := s.Solve(context.Background())
	if err != nil || st != Sat {
		t.Fatalf("Solve = %v, %v", st, err)
	}
	for i := range vars {
		want := i%2 == 0
		if s.Value(vars[i]) != want {
			t.Fatalf("x%d = %v, want %v", i, s.Value(vars[i]), want)
		}
	}
}

// TestPigeonhole checks a classic hard UNSAT family: n+1 pigeons in n
// holes. Small sizes keep the test fast while exercising clause learning
// and restarts.
func TestPigeonhole(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		s := New()
		// p[i][j]: pigeon i sits in hole j.
		p := make([][]Var, n+1)
		for i := range p {
			p[i] = make([]Var, n)
			for j := range p[i] {
				p[i][j] = s.NewVar()
			}
		}
		for i := 0; i <= n; i++ {
			lits := make([]Lit, n)
			for j := 0; j < n; j++ {
				lits[j] = Pos(p[i][j])
			}
			s.AddClause(lits...)
		}
		for j := 0; j < n; j++ {
			for i := 0; i <= n; i++ {
				for k := i + 1; k <= n; k++ {
					s.AddClause(Neg(p[i][j]), Neg(p[k][j]))
				}
			}
		}
		st, err := s.Solve(context.Background())
		if err != nil || st != Unsat {
			t.Fatalf("PHP(%d): Solve = %v, %v", n, st, err)
		}
	}
}

func TestAssumptionsIncremental(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Neg(a), Pos(b)) // a -> b
	s.AddClause(Neg(b), Pos(c)) // b -> c

	st, err := s.Solve(context.Background(), Pos(a), Neg(c))
	if err != nil || st != Unsat {
		t.Fatalf("assume a, ~c: Solve = %v, %v", st, err)
	}
	failed := s.FailedAssumptions()
	if len(failed) == 0 {
		t.Fatal("no failed assumptions reported")
	}
	// The failed set must be reported as the assumption literals that
	// were passed in (not their negations): callers key maps on them.
	for _, l := range failed {
		if l != Pos(a) && l != Neg(c) {
			t.Fatalf("failed assumption %v is not one of the passed assumptions", l)
		}
	}
	// The same solver must remain usable with compatible assumptions.
	st, err = s.Solve(context.Background(), Pos(a), Pos(c))
	if err != nil || st != Sat {
		t.Fatalf("assume a, c: Solve = %v, %v", st, err)
	}
	if !s.Value(b) {
		t.Fatal("a assumed but b false in model")
	}
	// And with the opposite branch.
	st, err = s.Solve(context.Background(), Neg(a))
	if err != nil || st != Sat {
		t.Fatalf("assume ~a: Solve = %v, %v", st, err)
	}
	if s.Value(a) {
		t.Fatal("~a assumed but a true in model")
	}
}

func TestFalsifiedAssumption(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Pos(a))
	st, err := s.Solve(context.Background(), Neg(a))
	if err != nil || st != Unsat {
		t.Fatalf("Solve = %v, %v", st, err)
	}
	// Solver must recover: without the bad assumption it is Sat.
	st, err = s.Solve(context.Background())
	if err != nil || st != Sat {
		t.Fatalf("recovery Solve = %v, %v", st, err)
	}
}

func TestContextCancel(t *testing.T) {
	s := hardRandomInstance(97)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	st, err := s.Solve(ctx)
	if st == Unknown && err == nil {
		t.Fatal("Unknown without error and without budget")
	}
	if err != nil && st != Unknown {
		t.Fatalf("error %v with status %v", err, st)
	}
	// Whatever happened, the solver must still answer a trivial query.
	v := s.NewVar()
	s.AddClause(Pos(v))
	st, err = s.Solve(context.Background(), Pos(v))
	if err != nil || st == Unknown {
		t.Fatalf("post-cancel Solve = %v, %v", st, err)
	}
}

func TestBudget(t *testing.T) {
	s := hardRandomInstance(11)
	s.SetBudget(5)
	st, err := s.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve err = %v", err)
	}
	if st != Unknown {
		// A tiny budget on a hard instance should exhaust; if the solver
		// got lucky that is not wrong, just note it.
		t.Logf("instance solved within budget: %v", st)
	}
	s.SetBudget(0)
	if st, err := s.Solve(context.Background()); err != nil || st == Unknown {
		t.Fatalf("unbounded re-solve = %v, %v", st, err)
	}
}

// hardRandomInstance builds a random 3-SAT instance near the phase
// transition so that the search actually conflicts.
func hardRandomInstance(seed int64) *Solver {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	const nv = 60
	vars := make([]Var, nv)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for c := 0; c < nv*43/10; c++ {
		var lits []Lit
		for k := 0; k < 3; k++ {
			lits = append(lits, MkLit(vars[rng.Intn(nv)], rng.Intn(2) == 0))
		}
		s.AddClause(lits...)
	}
	return s
}

// TestRandomVsBruteForce cross-checks the CDCL result against exhaustive
// enumeration on many small random instances.
func TestRandomVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		nv := 3 + rng.Intn(8) // 3..10 variables
		nc := 1 + rng.Intn(4*nv)
		type cls []int // +v / -v encoding, 1-based
		var clauses []cls
		for i := 0; i < nc; i++ {
			var c cls
			width := 1 + rng.Intn(3)
			for k := 0; k < width; k++ {
				v := 1 + rng.Intn(nv)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c = append(c, v)
			}
			clauses = append(clauses, c)
		}
		// Brute force.
		bruteSat := false
		for m := 0; m < 1<<nv; m++ {
			ok := true
			for _, c := range clauses {
				cs := false
				for _, l := range c {
					v := l
					if v < 0 {
						v = -v
					}
					val := m>>(v-1)&1 == 1
					if (l > 0) == val {
						cs = true
						break
					}
				}
				if !cs {
					ok = false
					break
				}
			}
			if ok {
				bruteSat = true
				break
			}
		}
		// CDCL.
		s := New()
		vars := make([]Var, nv)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		for _, c := range clauses {
			var lits []Lit
			for _, l := range c {
				if l > 0 {
					lits = append(lits, Pos(vars[l-1]))
				} else {
					lits = append(lits, Neg(vars[-l-1]))
				}
			}
			s.AddClause(lits...)
		}
		st, err := s.Solve(context.Background())
		if err != nil {
			t.Fatalf("trial %d: err %v", trial, err)
		}
		if (st == Sat) != bruteSat {
			t.Fatalf("trial %d: solver %v, brute force sat=%v (clauses %v)", trial, st, bruteSat, clauses)
		}
		if st == Sat {
			// Check the model actually satisfies every clause.
			for ci, c := range clauses {
				cs := false
				for _, l := range c {
					v := l
					if v < 0 {
						v = -v
					}
					if (l > 0) == s.Value(vars[v-1]) {
						cs = true
						break
					}
				}
				if !cs {
					t.Fatalf("trial %d: model violates clause %d: %v", trial, ci, c)
				}
			}
		}
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Pos(a), Neg(a)) // tautology: no-op
	s.AddClause(Pos(b), Pos(b), Pos(b))
	st, err := s.Solve(context.Background())
	if err != nil || st != Sat {
		t.Fatalf("Solve = %v, %v", st, err)
	}
	if !s.Value(b) {
		t.Fatal("b must be true")
	}
}

// TestModelReuse: a satisfiable solve records its model without
// allocating, and a Model copy taken earlier survives later solves.
func TestModelReuse(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Neg(a), Pos(b)) // a -> b
	ctx := context.Background()
	if st, err := s.Solve(ctx, Pos(a)); err != nil || st != Sat {
		t.Fatalf("assume a: Solve = %v, %v", st, err)
	}
	m := s.Model()
	if st, err := s.Solve(ctx, Neg(b)); err != nil || st != Sat {
		t.Fatalf("assume ~b: Solve = %v, %v", st, err)
	}
	if s.Value(a) || s.Value(b) {
		t.Fatal("~b assumed but the model has a or b")
	}
	if !m[a] || !m[b] {
		t.Fatalf("earlier Model copy changed by a later solve: %v", m)
	}
	assume := []Lit{Pos(a)}
	if allocs := testing.AllocsPerRun(10, func() {
		if st, _ := s.Solve(ctx, assume...); st != Sat {
			t.Fatal("assume a: not Sat")
		}
	}); allocs != 0 {
		t.Fatalf("satisfiable Solve allocates %.0f times", allocs)
	}
	if st, _ := s.Solve(ctx, Pos(a), Neg(b)); st != Unsat || s.Model() != nil {
		t.Fatalf("Unsat solve: status %v, model %v", st, s.Model())
	}
}
