// Random cosimulation: 64 seeded stimulus streams per netlist instance,
// gate-level vs the golden ISA model. This is the third batched
// consumer of the bitplane engine (after fault campaigns and mutant
// packing): where the scalar verify flow runs one gate-level simulation
// per generated input vector, the batched driver packs 64 seeds into
// one instance and cross-checks every lane's output stream against its
// own isasim run.
package bitsim

import (
	"context"
	"fmt"
	"time"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/isasim"
	"bespoke/internal/parallel"
)

// CosimMismatch is one diverging seed.
type CosimMismatch struct {
	Seed   uint64
	Detail string
}

// CosimReport summarizes a batched random cosim sweep.
type CosimReport struct {
	// Seeds is the number of stimulus streams checked.
	Seeds int
	// Batches is the number of simulator instances built (ceil(Seeds/64)).
	Batches int
	// LanesPerBatch is the batch width used.
	LanesPerBatch int
	// Cycles is the total number of gate-level lane-cycles verified
	// (the sum of every lane's halt cycle count).
	Cycles uint64
	// Mismatches lists seeds whose gate-level lane diverged from the
	// ISA golden model (expected empty: any entry is an engine or
	// design bug).
	Mismatches []CosimMismatch
	// Elapsed is the sweep's wall-clock time.
	Elapsed time.Duration
}

// RandomCosim runs n seeded workloads of benchmark b on design c, 64
// lanes per simulator instance, each lane cross-checked against its own
// golden ISA run. Batches fan out over the shared worker pool
// (workers<=0 means GOMAXPROCS).
func RandomCosim(ctx context.Context, b *bench.Benchmark, c *cpu.Core, n int, baseSeed uint64, workers int) (*CosimReport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bitsim: cosim needs at least one seed")
	}
	prog, err := b.Prog()
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, n)
	r := splitmix(baseSeed)
	for i := range seeds {
		seeds[i] = r.next() | 1 // nonzero: seed 0 means "default" to some generators
	}
	nBatch := (n + Lanes - 1) / Lanes
	type batchOut struct {
		cycles     uint64
		mismatches []CosimMismatch
	}
	outs := make([]batchOut, nBatch)
	start := time.Now()
	err = parallel.ForEach(ctx, workers, nBatch, func(bi int) error {
		lo := bi * Lanes
		hi := lo + Lanes
		if hi > n {
			hi = n
		}
		batch := seeds[lo:hi]
		h, err := NewHarness(c, prog, len(batch))
		if err != nil {
			return err
		}
		ws := make([]*core.Workload, len(batch))
		for l, seed := range batch {
			ws[l] = b.Workload(seed)
		}
		if err := h.Run(ctx, ws, nil); err != nil {
			return err
		}
		for l, seed := range batch {
			lane := &h.Lane[l]
			outs[bi].cycles += lane.Cycles
			if lane.Status != LaneHalted {
				outs[bi].mismatches = append(outs[bi].mismatches, CosimMismatch{
					Seed:   seed,
					Detail: fmt.Sprintf("gate-level lane %s: %s", lane.Status, lane.Detail),
				})
				continue
			}
			m := isasim.New(prog.Bytes, prog.Origin)
			if err := bench.RunISAWorkload(m, ws[l]); err != nil {
				return fmt.Errorf("bitsim: golden ISA run (seed %#x): %w", seed, err)
			}
			if d := DiffStreams(m.Out, lane.Out); d != "" {
				outs[bi].mismatches = append(outs[bi].mismatches, CosimMismatch{Seed: seed, Detail: d})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &CosimReport{
		Seeds: n, Batches: nBatch, LanesPerBatch: Lanes,
		Elapsed: time.Since(start),
	}
	if n < Lanes {
		rep.LanesPerBatch = n
	}
	for i := range outs {
		rep.Cycles += outs[i].cycles
		rep.Mismatches = append(rep.Mismatches, outs[i].mismatches...)
	}
	return rep, nil
}

// DiffStreams describes the first difference between a golden output
// stream and a run's, or returns "" when they are identical. Every
// output comparison against a golden run (cosim, fault campaigns, mutant
// checks) uses it.
func DiffStreams(want, got []uint16) string {
	for i := range want {
		if i >= len(got) {
			return fmt.Sprintf("output stream truncated at word %d (golden has %d words)", i, len(want))
		}
		if want[i] != got[i] {
			return fmt.Sprintf("out[%d] = %#04x, golden %#04x", i, got[i], want[i])
		}
	}
	if len(got) > len(want) {
		return fmt.Sprintf("output stream has %d extra words (golden has %d)", len(got)-len(want), len(want))
	}
	return ""
}

// splitmix is a splitmix64 generator for deterministic seed derivation.
type splitmix uint64

func (r *splitmix) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
