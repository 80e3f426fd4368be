package symexec

import (
	"context"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/cpu"
)

// TestRunWorldAllocsPooled guards the snapshot free-list: once the pool
// is warm, the capture/runWorld/recycle cycle of the exploration loop
// must not allocate. A regression here (a dropped recycle, a snapshot
// path that stops reusing buffers) shows up as a nonzero average.
func TestRunWorldAllocsPooled(t *testing.T) {
	p := asm.MustAssemble(prologue + epilogue)
	core := cpu.Build()
	if err := core.LoadProgram(p.Bytes, p.Origin); err != nil {
		t.Fatal(err)
	}
	a, err := newAnalyzer(context.Background(), core, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the initial world to the halt state so every measured
	// runWorld call terminates at the first decision.
	w := a.stack[len(a.stack)-1]
	a.stack = a.stack[:len(a.stack)-1]
	if err := a.runWorld(w); err != nil {
		t.Fatal(err)
	}
	// Warm the free-list: the first capture after the run is cold.
	a.recycle(a.capture())

	avg := testing.AllocsPerRun(50, func() {
		sn := a.capture()
		if err := a.runWorld(world{snap: sn}); err != nil {
			t.Fatal(err)
		}
		a.recycle(sn)
	})
	if avg > 0 {
		t.Errorf("pooled capture+runWorld+recycle allocates %.1f objects/run, want 0", avg)
	}
}
