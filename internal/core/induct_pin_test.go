package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/equiv"
)

// multProvenanceSHA256 is the SHA-256 of mult's induction provenance
// (Provenance.Encode: every proved invariant's name, discharge depth,
// cube count and claim-proof use count). A change to the induction
// engine that keeps this digest and the tallies below proves exactly the
// same invariants at exactly the same depths on the real core.
const multProvenanceSHA256 = "38a076f0b342550f15ee226bc4d8112aa40089955d8aaf09bd40dab6808ff673"

// TestInductMultPinned runs the full flow with k-induction on mult's real
// core and pins its proof outputs: the candidate pool, what the ladder
// drops and proves, the per-claim verdicts and the provenance digest.
// Performance work on internal/induct and internal/sat must leave every
// one of them unchanged. The claim proofs run on one worker: with more,
// which solver proves which claim varies run to run, and with it the
// UNSAT cores behind the provenance's use counts.
func TestInductMultPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping real-core k-induction")
	}
	bm := bench.ByName("mult")
	res, err := core.Tailor(context.Background(), bm.MustProg(), bm.Workload(1), core.Options{
		Induct:    true,
		ProveOpts: equiv.Options{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Proofs) != 1 {
		t.Fatalf("want 1 proof result, got %d", len(res.Proofs))
	}
	pr := res.Proofs[0]
	is, rep := pr.Induct, pr.Claims
	if is == nil || rep == nil || is.Provenance == nil {
		t.Fatal("proof result lacks its induction summary, claim report or provenance")
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"K", is.K, 8},
		{"candidates", is.Candidates, 3209},
		{"dropped", is.Dropped, 148},
		{"invariants", is.Invariants, 440},
		{"core claims", is.Core, 2621},
		{"proved structural", rep.ProvedStructural, 1354},
		{"proved SAT", rep.ProvedSAT, 1266},
		{"proved induct", rep.ProvedInduct, 34},
		{"assumed", rep.Assumed, 3},
		{"refuted", rep.Refuted, 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if is.BudgetExhausted {
		t.Error("an induction level ran out of conflict budget")
	}
	sum := sha256.Sum256(is.Provenance.Encode())
	if got := hex.EncodeToString(sum[:]); got != multProvenanceSHA256 {
		t.Errorf("provenance SHA-256 = %s, want %s", got, multProvenanceSHA256)
	}
}
