package equiv

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"bespoke/internal/cut"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// abortNetlist mixes claims every abort path must account for: a
// self-holding flip-flop whose fanout discharges structurally, and a
// free-input buffer that always needs a SAT query (and ends Assumed).
func abortNetlist() (*netlist.Netlist, []cut.Claim) {
	n := netlist.New()
	c := n.Add(netlist.Gate{Kind: netlist.Dff, Reset: logic.One, Name: "c"})
	n.Gates[c].In[0] = c
	cb := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{c, netlist.None, netlist.None}})
	in := n.Add(netlist.Gate{Kind: netlist.Input, Name: "in"})
	fb := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{in, netlist.None, netlist.None}})
	n.MarkOutput("cb", cb)
	n.MarkOutput("fb", fb)
	claims := []cut.Claim{
		{Gate: c, Val: logic.One},
		{Gate: cb, Val: logic.One},
		{Gate: fb, Val: logic.Zero}, // free input: undecidable, stays Assumed
	}
	return n, claims
}

// checkBookkeeping asserts the LimitError invariant documented on
// limitError: Proved+Assumed+Refuted+Remaining equals the claim count,
// and the carried report agrees with the counters.
func checkBookkeeping(t *testing.T, le *LimitError, nClaims int) {
	t.Helper()
	if got := le.Proved + le.Assumed + le.Refuted + le.Remaining; got != nClaims {
		t.Fatalf("bookkeeping leak: %d proved + %d assumed + %d refuted + %d remaining = %d, want %d",
			le.Proved, le.Assumed, le.Refuted, le.Remaining, got, nClaims)
	}
	if le.Report == nil {
		t.Fatal("LimitError carries no partial report")
	}
	unproved := 0
	for _, cr := range le.Report.Results {
		if cr.Verdict == Unproved {
			unproved++
		}
	}
	if unproved != le.Remaining {
		t.Fatalf("Remaining=%d but report holds %d Unproved results", le.Remaining, unproved)
	}
	if le.Report.Proved() != le.Proved || le.Report.Assumed != le.Assumed || le.Report.Refuted != le.Refuted {
		t.Fatalf("report tally (%d/%d/%d) disagrees with LimitError (%d/%d/%d)",
			le.Report.Proved(), le.Report.Assumed, le.Report.Refuted,
			le.Proved, le.Assumed, le.Refuted)
	}
}

// TestProveClaimsPreCancelled: a cancelled context aborts the SAT phase
// with a *LimitError whose bookkeeping is exact — structural verdicts
// from phase 1 are kept, undecided residue is Remaining, and nothing is
// silently promoted to Assumed.
func TestProveClaimsPreCancelled(t *testing.T) {
	n, claims := abortNetlist()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ProveClaims(ctx, &Env{N: n, Claims: claims}, Options{})
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %v", err)
	}
	if le.Reason != "cancelled" {
		t.Fatalf("reason %q, want cancelled", le.Reason)
	}
	if !errors.Is(le, context.Canceled) {
		t.Fatal("LimitError does not unwrap to context.Canceled")
	}
	checkBookkeeping(t, le, len(claims))
	if le.Remaining == 0 {
		t.Fatal("cancelled run claims to have decided every claim")
	}
	// The structural claims never touch the solver; the abort must not
	// lose them.
	if le.Proved < 2 {
		t.Fatalf("phase-1 structural verdicts lost on abort: proved=%d", le.Proved)
	}
}

// TestProveClaimsDeadline: an expired deadline is the other abort
// reason; the same exactness contract applies.
func TestProveClaimsDeadline(t *testing.T) {
	n, claims := abortNetlist()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	_, err := ProveClaims(ctx, &Env{N: n, Claims: claims}, Options{})
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %v", err)
	}
	if le.Reason != "deadline exceeded" {
		t.Fatalf("reason %q, want deadline exceeded", le.Reason)
	}
	checkBookkeeping(t, le, len(claims))
	if !strings.Contains(le.Error(), "deadline") {
		t.Fatalf("error text %q does not name the reason", le.Error())
	}
}

// parityNetlist builds and(a^b^c^d, !(a^b^c^d)) — a true constant-0 whose
// refutation query is pure XOR reasoning: unit propagation alone cannot
// close it, so the solver must spend conflicts. With QueryBudget 1 the
// query runs out and the claim must land in Assumed (never Refuted).
func parityNetlist() (*netlist.Netlist, []cut.Claim) {
	n := netlist.New()
	var ins [4]netlist.GateID
	for i := range ins {
		ins[i] = n.Add(netlist.Gate{Kind: netlist.Input})
	}
	x1 := n.Add(netlist.Gate{Kind: netlist.Xor, In: [3]netlist.GateID{ins[0], ins[1], netlist.None}})
	x2 := n.Add(netlist.Gate{Kind: netlist.Xor, In: [3]netlist.GateID{ins[2], ins[3], netlist.None}})
	x3 := n.Add(netlist.Gate{Kind: netlist.Xor, In: [3]netlist.GateID{x1, x2, netlist.None}})
	y1 := n.Add(netlist.Gate{Kind: netlist.Xor, In: [3]netlist.GateID{ins[1], ins[0], netlist.None}})
	y2 := n.Add(netlist.Gate{Kind: netlist.Xor, In: [3]netlist.GateID{ins[3], ins[2], netlist.None}})
	y3 := n.Add(netlist.Gate{Kind: netlist.Xnor, In: [3]netlist.GateID{y1, y2, netlist.None}})
	z := n.Add(netlist.Gate{Kind: netlist.And, In: [3]netlist.GateID{x3, y3, netlist.None}})
	n.MarkOutput("z", z)
	return n, []cut.Claim{{Gate: z, Val: logic.Zero}}
}

// TestProveClaimsBudgetExhaustion: a conflict budget too small to decide
// a claim degrades it to Assumed — the run completes without error, with
// zero refutations and zero Unproved leftovers.
func TestProveClaimsBudgetExhaustion(t *testing.T) {
	n, claims := parityNetlist()
	rep, err := ProveClaims(context.Background(), &Env{N: n, Claims: claims},
		Options{QueryBudget: 1})
	if err != nil {
		t.Fatalf("budget exhaustion must not be an error: %v", err)
	}
	if rep.Refuted != 0 {
		t.Fatalf("budget exhaustion refuted a true claim: %+v", rep.Refutations())
	}
	if rep.Assumed == 0 {
		t.Fatalf("claim was decided within 1 conflict; want Assumed (report %d/%d/%d)",
			rep.Proved(), rep.Assumed, rep.Refuted)
	}
	for _, cr := range rep.Results {
		if cr.Verdict == Unproved {
			t.Fatal("completed run left an Unproved verdict")
		}
	}
	if got := rep.Proved() + rep.Assumed + rep.Refuted; got != len(claims) {
		t.Fatalf("completed run bookkeeping: %d != %d claims", got, len(claims))
	}
	// Sanity: with a real budget the same claim proves.
	rep2, err := ProveClaims(context.Background(), &Env{N: n, Claims: claims}, Options{})
	if err != nil || rep2.Proved() != 1 {
		t.Fatalf("claim should prove under the default budget: %+v, %v", rep2, err)
	}
}

// TestProofErrorMessage pins the *ProofError rendering used by the
// serving layer: singular/plural refutation counts and the stimulus
// availability note.
func TestProofErrorMessage(t *testing.T) {
	pe := &ProofError{Gate: 7, Kind: netlist.And, Name: "g7", Claimed: logic.One, Refuted: 1}
	msg := pe.Error()
	if !strings.Contains(msg, "gate 7") || strings.Contains(msg, "more refuted") {
		t.Fatalf("singular message wrong: %q", msg)
	}
	pe.Refuted = 3
	pe.Counterexample = &Counterexample{}
	msg = pe.Error()
	if !strings.Contains(msg, "2 more refuted") || !strings.Contains(msg, "stimulus available") {
		t.Fatalf("plural message wrong: %q", msg)
	}
}
