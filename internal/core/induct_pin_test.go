package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/core"
)

// multInvariantsSHA256 is the SHA-256 of mult's proved invariant set:
// every proved invariant's name, discharge depth and cube count, in
// candidate order, without use counts. The greatest k-inductive subset
// of the candidates is unique, so a change to the solver's search that
// exhausts no budget keeps this digest.
const multInvariantsSHA256 = "44892e9314ddbcf0ba38c273c1f83ed19a916e748758c2da05ed40204498f53d"

// multProvenanceSHA256 is the SHA-256 of mult's induction provenance
// (Provenance.Encode: the invariant set above plus each invariant's
// claim-proof use count). The use counts come from the UNSAT cores of
// the claim proofs, so a change to the solver's search may move them
// and re-record this digest; a change to the induction engine or to
// the solver's speed alone keeps it.
const multProvenanceSHA256 = "31f2d56feaf5db23a3096bec77d133c09747dd6b7164c237e454d633a1b15322"

// TestInductMultPinned runs the full flow with k-induction on mult's real
// core and pins its proof outputs: the candidate pool, what the ladder
// drops and proves, the per-claim verdicts and two digests. It splits
// them by what the solver's search may move. While no query runs out of
// budget, the counts, verdicts and invariant-set digest follow from the
// candidates alone, so performance work on internal/induct and
// internal/sat must keep them, search changes included. The provenance
// digest adds the UNSAT-core use counts, which a search change may move
// and which anything else must keep. It runs at GOMAXPROCS 3, so proof
// outputs that depend on the core count fail it.
func TestInductMultPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping real-core k-induction")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	bm := bench.ByName("mult")
	res, err := core.Tailor(context.Background(), bm.MustProg(), bm.Workload(1), core.Options{Induct: true})
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
	inv := sha256.New()
	for _, r := range is.Provenance.Invariants {
		fmt.Fprintf(inv, "%s %d %d\n", r.Name, r.K, r.Cubes)
	}
	if got := hex.EncodeToString(inv.Sum(nil)); got != multInvariantsSHA256 {
		t.Errorf("invariant set SHA-256 = %s, want %s", got, multInvariantsSHA256)
	}
	sum := sha256.Sum256(is.Provenance.Encode())
	if got := hex.EncodeToString(sum[:]); got != multProvenanceSHA256 {
		t.Errorf("provenance SHA-256 = %s, want %s", got, multProvenanceSHA256)
	}
}
