package bitsim_test

import (
	"context"
	"fmt"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/bitsim"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/logic"
)

// laneSeeds spreads distinct seeds across the lane word (low, middle and
// high bit positions) so plane bugs outside lane 0 can't hide.
var laneSeeds = map[int]uint64{0: 1, 17: 0xBEEF, 42: 7, 63: 0xFEED_F00D}

// probeCycle is the cycle at which the oracle compares flip-flop state.
const probeCycle = 2000

// scalarRun is one workload run on internal/sim: its trace and its
// flip-flop state at probeCycle (nil when it halted first).
type scalarRun struct {
	tr    *core.RunTrace
	probe []logic.V
}

// TestHarnessLaneExtractionOracle is the catalog-level acceptance oracle:
// for every benchmark, a batch must reproduce the scalar engine's run
// bit-exactly per lane — output stream, halt cycle, and mid-run flip-flop
// state. A full batch is checked at the laneSeeds lanes; partial batches
// of one and five lanes, whose unused lanes the memories ignore, are
// checked at every lane.
func TestHarnessLaneExtractionOracle(t *testing.T) {
	benches := bench.All()
	if testing.Short() {
		benches = benches[:3]
	}
	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := b.Prog()
			if err != nil {
				t.Fatal(err)
			}
			scalar := map[uint64]scalarRun{}
			scalarOf := func(seed uint64) scalarRun {
				if r, ok := scalar[seed]; ok {
					return r
				}
				var r scalarRun
				hook := func(sh *cpu.Harness) {
					if sh.Cycles == probeCycle {
						r.probe = sh.Sim.DffSnapshot()
					}
				}
				tr, err := core.RunWorkloadHooked(context.Background(), cpu.Build(), prog, b.Workload(seed), hook)
				if err != nil {
					t.Fatalf("seed %#x: scalar run: %v", seed, err)
				}
				r.tr = tr
				scalar[seed] = r
				return r
			}

			// Every lane of the full batch gets a workload (unstimulated
			// lanes would poison or time out — benchmarks expect their RAM
			// preload); only the laneSeeds lanes are cross-checked.
			full := make([]uint64, bitsim.Lanes)
			for l := range full {
				full[l] = uint64(1000 + l)
			}
			var checked []int
			for l, seed := range laneSeeds {
				full[l] = seed
				checked = append(checked, l)
			}
			checkBatch(t, b, prog, full, checked, scalarOf)
			checkBatch(t, b, prog, []uint64{1}, []int{0}, scalarOf)
			checkBatch(t, b, prog, []uint64{1, 0xBEEF, 7, 0xFEED_F00D, 1004}, []int{0, 1, 2, 3, 4}, scalarOf)
		})
	}
}

// checkBatch runs a len(seeds)-lane batch of b, lane l on seeds[l], and
// compares each checked lane with its scalar run.
func checkBatch(t *testing.T, b *bench.Benchmark, prog *asm.Program, seeds []uint64, checked []int, scalarOf func(uint64) scalarRun) {
	t.Helper()
	h, err := bitsim.NewHarness(cpu.Build(), prog, len(seeds))
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]*core.Workload, len(seeds))
	for l, seed := range seeds {
		ws[l] = b.Workload(seed)
	}
	probes := map[int][]logic.V{}
	hook := func(h *bitsim.Harness) {
		if h.Cycles() == probeCycle {
			for _, l := range checked {
				probes[l] = h.DffSnapshotLane(l)
			}
		}
	}
	if err := h.Run(context.Background(), ws, hook); err != nil {
		t.Fatal(err)
	}
	for _, l := range checked {
		seed := seeds[l]
		sr := scalarOf(seed)
		lane := h.Lane[l]
		if lane.Status != bitsim.LaneHalted {
			t.Fatalf("%d lanes, lane %d seed %#x: %s (%s), scalar halted", len(seeds), l, seed, lane.Status, lane.Detail)
		}
		if lane.Cycles != sr.tr.Cycles {
			t.Errorf("%d lanes, lane %d seed %#x: halt cycle %d, scalar %d", len(seeds), l, seed, lane.Cycles, sr.tr.Cycles)
		}
		if d := diffWords(sr.tr.Out, lane.Out); d != "" {
			t.Errorf("%d lanes, lane %d seed %#x: output stream: %s", len(seeds), l, seed, d)
		}
		if sr.probe == nil {
			continue // run halted before the probe cycle
		}
		bp := probes[l]
		if len(bp) != len(sr.probe) {
			t.Fatalf("%d lanes, lane %d: %d dffs vs scalar %d", len(seeds), l, len(bp), len(sr.probe))
		}
		for i := range bp {
			if bp[i] != sr.probe[i] {
				t.Errorf("%d lanes, lane %d seed %#x: dff %d at cycle %d: %v, scalar %v",
					len(seeds), l, seed, i, probeCycle, bp[i], sr.probe[i])
				break
			}
		}
	}
}

func diffWords(want, got []uint16) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d words, scalar %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("word %d = %#04x, scalar %#04x", i, got[i], want[i])
		}
	}
	return ""
}

// TestRandomCosim smoke-checks the batched random cosim driver on a
// couple of benchmarks: every seeded lane must match its own ISA golden.
func TestRandomCosim(t *testing.T) {
	names := []string{"mult", "binSearch"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("no benchmark %q", name)
		}
		c := cpu.Build()
		n := 70 // exercises a full batch plus a partial one
		if testing.Short() {
			n = 6
		}
		rep, err := bitsim.RandomCosim(context.Background(), b, c, n, 42, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Mismatches) != 0 {
			t.Fatalf("%s: %d mismatches, first: seed %#x: %s",
				name, len(rep.Mismatches), rep.Mismatches[0].Seed, rep.Mismatches[0].Detail)
		}
		if rep.Seeds != n || rep.Cycles == 0 {
			t.Fatalf("%s: implausible report %+v", name, rep)
		}
	}
}

// TestHarnessCancellation runs a batch with an already-expiring context
// under load; Run must return promptly with a context error and no
// partial lane may be misreported as halted.
func TestHarnessCancellation(t *testing.T) {
	b := bench.ByName("mult")
	prog, err := b.Prog()
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.Build()
	h, err := bitsim.NewHarness(c, prog, bitsim.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]*core.Workload, bitsim.Lanes)
	for l := range ws {
		ws[l] = b.Workload(uint64(l + 1))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.Run(ctx, ws, nil); err == nil {
		t.Fatal("expected a context error")
	}
	for l := range h.Lane {
		if h.Lane[l].Status == bitsim.LaneHalted {
			t.Fatalf("lane %d reported halted after aborted run", l)
		}
	}
}
