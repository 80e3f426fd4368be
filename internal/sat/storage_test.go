package sat

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// bytesOf returns the bytes s's backing array holds.
func bytesOf[T any](s []T) uint64 {
	var z T
	return uint64(cap(s)) * uint64(unsafe.Sizeof(z))
}

// storage returns the bytes s's slices hold, each literal's watch list
// included.
func (s *Solver) storage() uint64 {
	n := bytesOf(s.arena) + bytesOf(s.learnts) + bytesOf(s.watches) +
		bytesOf(s.vals) + bytesOf(s.level) + bytesOf(s.reason) +
		bytesOf(s.trail) + bytesOf(s.lim) + bytesOf(s.activity) +
		bytesOf(s.order.data) + bytesOf(s.order.pos) + bytesOf(s.phase) +
		bytesOf(s.seen) + bytesOf(s.conflict) + bytesOf(s.modelBuf) +
		bytesOf(s.learntClause) + bytesOf(s.minRemoved)
	for _, ws := range s.watches[:cap(s.watches)] {
		n += bytesOf(ws)
	}
	return n
}

// TestStorageGrowsByDoubling builds a seeded instance the way the proof
// engines do, a block of variables and then clauses over them, frame by
// frame, large enough that append would grow its slices about 1.25x at a
// time. Growth by doubling allocates about twice the storage the solver
// finally holds; append's steps allocate about five times.
func TestStorageGrowsByDoubling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clause := make([]Lit, 0, 8)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New()
	for frame := 0; frame < 40; frame++ {
		for i := 0; i < 1000; i++ {
			s.NewVar()
		}
		for i := 0; i < 4000; i++ {
			clause = clause[:0]
			for j := 2 + rng.Intn(5); j > 0; j-- {
				clause = append(clause, MkLit(Var(rng.Intn(s.NumVars())), rng.Intn(2) == 0))
			}
			s.AddClause(clause...)
		}
	}
	runtime.ReadMemStats(&after)
	alloc, held := after.TotalAlloc-before.TotalAlloc, s.storage()
	if alloc >= 3*held {
		t.Fatalf("building the instance allocated %d bytes for %d held (%.2fx); want under 3x", alloc, held, float64(alloc)/float64(held))
	}
	t.Logf("allocated %d bytes for %d held (%.2fx)", alloc, held, float64(alloc)/float64(held))
}
