package core_test

import (
	"context"
	"reflect"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/core"
)

// TestProveMatchesTailor checks that the formal gate run on its own is
// the gate Tailor applies: on mult, core.Prove and core.Tailor with
// Options.Prove return the same claim tallies and miter outcome.
func TestProveMatchesTailor(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SAT proof gate")
	}
	bm := bench.ByName("mult")
	var opts core.Options
	proofs, err := core.Prove(context.Background(), []*asm.Program{bm.MustProg()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Prove = true
	res, err := core.Tailor(context.Background(), bm.MustProg(), bm.Workload(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(proofs) != 1 || len(res.Proofs) != 1 {
		t.Fatalf("proof results: Prove %d, Tailor %d; want 1 each", len(proofs), len(res.Proofs))
	}
	tallies := func(pr core.ProofResult) [8]int64 {
		c := pr.Claims
		return [8]int64{int64(len(c.Results)), int64(c.ProvedStructural), int64(c.ProvedSAT),
			int64(c.ProvedInduct), int64(c.Assumed), int64(c.Refuted), c.SATQueries, c.Conflicts}
	}
	got, want := proofs[0], res.Proofs[0]
	if tallies(got) != tallies(want) {
		t.Errorf("claim tallies (claims, structural, sat, induct, assumed, refuted, queries, conflicts): Prove %v, Tailor %v",
			tallies(got), tallies(want))
	}
	if !reflect.DeepEqual(got.Miter, want.Miter) {
		t.Errorf("miter: Prove %+v, Tailor %+v", *got.Miter, *want.Miter)
	}
	if !got.Miter.Equivalent || got.Claims.Refuted != 0 {
		t.Errorf("mult failed the formal gate: %+v, %d refuted", *got.Miter, got.Claims.Refuted)
	}
	if got.Induct != nil {
		t.Error("Prove without Induct returned an induction summary")
	}
}
