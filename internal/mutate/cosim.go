// The dynamic mutant-verification phase: static support checking
// (toggled-gates subset) is conservative by construction, so CheckSupport
// can optionally confirm its verdicts by actually running the mutants on
// the bespoke design. The symbolic analysis itself branches on unknowns
// and cannot be bit-parallelized, but the confirmation runs are concrete:
// up to 64 mutant program images are packed into the lanes of one bitsim
// instance (copy-on-write lane ROMs over the shared base image), settle
// together in one pass, and each lane is compared against its own
// golden ISA run of the same mutant.
package mutate

import (
	"context"
	"fmt"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/bitsim"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/isasim"
	"bespoke/internal/parallel"
)

// mutantCycles bounds each mutant's symbolic analysis and each of its
// concrete runs, ISA and gate-level alike: mutations can turn bounded
// loops into 64K-iteration wraps, and a mutant over the budget counts as
// unsupported (statically) or is skipped (dynamically).
const mutantCycles = 400_000

// Options tunes CheckSupport.
type Options struct {
	// Cosim, when non-nil, adds the dynamic verification phase: every
	// assemblable mutant is executed on the given design, 64 mutants per
	// bit-parallel simulator pass, and compared against its own golden
	// ISA run.
	Cosim *CosimCheck
}

// CosimCheck configures the dynamic verification phase.
type CosimCheck struct {
	// Design is the bespoke design the mutants run on (the app-only cut
	// when validating Table 5's support claims).
	Design *cpu.Core
	// Workload stimulates every mutant run (typically the benchmark's
	// canonical workload).
	Workload *core.Workload
}

// CosimReport summarizes the dynamic verification phase.
type CosimReport struct {
	// Checked is the number of mutants actually executed (assembled and
	// with a halting golden ISA run).
	Checked int
	// Confirmed counts statically-supported mutants whose gate-level run
	// on the design matched their golden ISA run.
	Confirmed int
	// Conservative counts statically-unsupported mutants that
	// nevertheless ran correctly: the static check declared them
	// unsupported only because symbolic exploration over-approximates.
	Conservative int
	// Mismatched counts statically-unsupported mutants that diverged on
	// the design — the expected fate of a mutant needing removed gates.
	Mismatched int
	// Unsound lists the indices (into the mutant slice) of
	// statically-supported mutants that diverged from their golden run.
	// Any entry is a soundness bug in the activity analysis or the cut.
	Unsound []int
	// Skipped counts mutants that could not be checked (assembly failure
	// or a non-halting golden ISA run).
	Skipped int
	// Batches is the number of simulator instances built.
	Batches int
	// Elapsed is the phase's wall-clock time.
	Elapsed time.Duration
}

type cosimVerdict uint8

const (
	cosimSkip cosimVerdict = iota
	cosimMatch
	cosimMismatch
)

// cosimVerify runs every mutant on the design, 64 lanes per simulator
// instance, and folds the per-lane comparisons into a report. supported
// carries the static phase's per-mutant verdicts.
func cosimVerify(ctx context.Context, muts []*Mutant, supported []bool, cc *CosimCheck) (*CosimReport, error) {
	if cc.Design == nil {
		return nil, fmt.Errorf("mutate: cosim verification needs a design")
	}
	start := time.Now()
	// Every run, ISA and gate-level, reads this one workload.
	w := core.Workload{MaxCycles: mutantCycles}
	if cc.Workload != nil {
		w.RAM, w.P1, w.IRQ = cc.Workload.RAM, cc.Workload.P1, cc.Workload.IRQ
	}
	verdicts := make([]cosimVerdict, len(muts))
	nBatch := (len(muts) + bitsim.Lanes - 1) / bitsim.Lanes
	err := parallel.ForEach(ctx, 0, nBatch, func(bi int) error {
		lo := bi * bitsim.Lanes
		hi := min(lo+bitsim.Lanes, len(muts))

		// Golden ISA run per mutant; assembly failures and non-halting
		// mutants stay cosimSkip and get no lane.
		type laneJob struct {
			mi     int
			prog   *asm.Program
			golden []uint16
		}
		var jobs []laneJob
		for mi := lo; mi < hi; mi++ {
			p, err := muts[mi].Prog()
			if err != nil {
				continue
			}
			m := isasim.New(p.Bytes, p.Origin)
			if err := bench.RunISAWorkload(m, &w); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				continue // mutant does not halt: skipped
			}
			jobs = append(jobs, laneJob{mi: mi, prog: p, golden: m.Out})
		}
		if len(jobs) == 0 {
			return nil
		}

		h, err := bitsim.NewHarness(cc.Design, nil, len(jobs))
		if err != nil {
			return err
		}
		ws := make([]*core.Workload, len(jobs))
		for l, j := range jobs {
			if err := h.ROM.LoadLaneProgram(l, j.prog.Bytes, j.prog.Origin); err != nil {
				return err
			}
			ws[l] = &w
		}
		if err := h.Run(ctx, ws, nil); err != nil {
			return err
		}
		for l, j := range jobs {
			lane := h.Lane[l]
			if lane.Status == bitsim.LaneHalted && bitsim.DiffStreams(j.golden, lane.Out) == "" {
				verdicts[j.mi] = cosimMatch
			} else {
				verdicts[j.mi] = cosimMismatch
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mutate: cosim verification aborted: %w", err)
	}

	rep := &CosimReport{Batches: nBatch}
	for i := range muts {
		switch verdicts[i] {
		case cosimSkip:
			rep.Skipped++
		case cosimMatch:
			rep.Checked++
			if supported[i] {
				rep.Confirmed++
			} else {
				rep.Conservative++
			}
		case cosimMismatch:
			rep.Checked++
			if supported[i] {
				rep.Unsound = append(rep.Unsound, i)
			} else {
				rep.Mismatched++
			}
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
