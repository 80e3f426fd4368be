package sat

import (
	"math/rand"
	"testing"
)

// checkPick compares a pickBranch result with a linear scan over s: the
// pick must be an unassigned variable of maximal activity, in its saved
// phase, and when that activity is 0, the lowest-numbered unassigned
// variable. A variable whose activity rescaling underflowed to 0 counts
// as never bumped. With every variable assigned the pick is LitUndef.
func checkPick(t *testing.T, s *Solver, got Lit, seed int64, step int) {
	t.Helper()
	want := Var(-1)
	for i := range s.NumVars() {
		v := Var(i)
		if s.vals[Pos(v)] == lUndef && (want < 0 || s.activity[v] > s.activity[want]) {
			want = v
		}
	}
	switch {
	case want < 0:
		if got != LitUndef {
			t.Fatalf("seed %d step %d: picked %v with every variable assigned", seed, step, got)
		}
	case got == LitUndef:
		t.Fatalf("seed %d step %d: picked nothing, want v%d", seed, step, want)
	case s.vals[got] != lUndef:
		t.Fatalf("seed %d step %d: picked assigned %v", seed, step, got)
	case s.activity[got.Var()] != s.activity[want]:
		t.Fatalf("seed %d step %d: picked %v of activity %g, v%d has %g",
			seed, step, got, s.activity[got.Var()], want, s.activity[want])
	case s.activity[want] == 0 && got.Var() != want:
		t.Fatalf("seed %d step %d: picked %v, want the lowest unassigned v%d", seed, step, got, want)
	case got.Negated() == s.phase[got.Var()]:
		t.Fatalf("seed %d step %d: picked %v against its saved phase", seed, step, got)
	}
}

// TestDecisionOrder drives the branching state of a solver directly
// (variables created, bumped, decided and implied at new levels,
// backtracked, the increment decayed and pushed past the rescale point)
// and checks every pickBranch against checkPick's linear scan. Repeated
// rescales underflow the activities of variables bumped long before to
// 0, so those rejoin the never-bumped ones in creation order.
func TestDecisionOrder(t *testing.T) {
	underflowed := false
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var bumped []bool
		newVar := func() {
			s.NewVar()
			bumped = append(bumped, false)
		}
		bump := func() {
			v := Var(rng.Intn(s.NumVars()))
			s.bumpVar(v)
			bumped[v] = true
		}
		for n := 1 + rng.Intn(40); n > 0; n-- {
			newVar()
		}
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(100); {
			case r < 3:
				newVar()
			case r < 30:
				bump()
			case r < 33:
				// The next bump crosses 1e100 and rescales every activity
				// by 1e-100.
				s.varInc = 1e100 * (1.5 + rng.Float64())
				bump()
			case r < 40:
				s.decayVar()
			case r < 50:
				if len(s.lim) > 0 {
					s.cancelUntil(int32(rng.Intn(len(s.lim))))
				}
			case r < 60:
				// An implied literal: assigned at the current level
				// without being picked, so the heap holds it stale.
				if v := Var(rng.Intn(s.NumVars())); s.vals[Pos(v)] == lUndef {
					s.uncheckedEnqueue(MkLit(v, rng.Intn(2) == 0), -1)
				}
			default:
				p := s.pickBranch()
				checkPick(t, s, p, seed, step)
				if p != LitUndef {
					s.lim = append(s.lim, int32(len(s.trail)))
					s.uncheckedEnqueue(p, -1)
				}
			}
			for v, b := range bumped {
				underflowed = underflowed || (b && s.activity[v] == 0)
			}
		}
	}
	if !underflowed {
		t.Error("no activity underflowed to 0 under repeated rescales")
	}
}
