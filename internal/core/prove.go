package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"bespoke/internal/cpu"
	"bespoke/internal/equiv"
	"bespoke/internal/induct"
	"bespoke/internal/symexec"
)

// ProofResult is the formal verification outcome for one program: the
// per-claim report and the base-vs-bespoke miter result under that
// program's ROM image.
type ProofResult struct {
	Program int
	Claims  *equiv.Report
	Miter   *equiv.MiterResult
	// Induct summarizes the inductive invariant engine run for this
	// program when Options.Induct was set (nil otherwise).
	Induct *InductSummary
}

// InductSummary is the outcome of one induct.Prove run.
type InductSummary struct {
	// K mirrors induct.Result.K: the ladder depth by which every
	// candidate is proved or dropped by a base check.
	K int
	// Invariants counts the proved non-claim invariants handed to the
	// prover; Core counts claims proved as members of the inductive core.
	Invariants int
	Core       int
	// Candidates, Dropped, Queries and Conflicts mirror induct.Result.
	Candidates int
	Dropped    int
	Queries    int64
	Conflicts  int64
	// BudgetExhausted reports a check was abandoned on budget (sound:
	// fewer invariants proved, or looser K labels).
	BudgetExhausted bool
	// Provenance records per-invariant discharge depth and how many
	// claim proofs used each one.
	Provenance *induct.Provenance
}

// ErrNotEquivalent is the formal gate's verdict that a bespoke netlist
// fails its miter against the baseline; the gate's error wraps it with the
// first mismatching obligation.
var ErrNotEquivalent = errors.New("bespoke netlist is not equivalent to the baseline")

// proveGate discharges the flow's formal obligations: for every target
// program, on the core its analysis ran on (bases[i] holds program i's
// ROM image), prove each cut constant implied by the proof environment
// (or record it as assumed), and prove the cut+re-synthesized netlist
// miter-equivalent to the baseline modulo the assumed claims.
//
// A refuted claim aborts with a *equiv.ProofError. Before returning it,
// the counterexample stimulus is replayed in gate-level cosimulation on
// both designs — the divergence is attached as the regression input that
// exhibits the bug dynamically.
func proveGate(ctx context.Context, bespoke *cpu.Core, bases []*cpu.Core, union *symexec.Result, opts Options) ([]ProofResult, error) {
	out := make([]ProofResult, 0, len(bases))
	for pi, base := range bases {
		env, err := equiv.NewCoreEnv(base, union)
		if err != nil {
			return nil, fmt.Errorf("program %d: %w", pi, err)
		}
		var isum *InductSummary
		if opts.Induct {
			isum, err = strengthen(ctx, base, union, env, opts)
			if err != nil {
				return nil, fmt.Errorf("program %d: %w", pi, err)
			}
		}
		rep, err := equiv.ProveClaims(ctx, env, opts.ProveOpts)
		if err != nil {
			return nil, fmt.Errorf("program %d: %w", pi, err)
		}
		if rep.Refuted > 0 {
			return nil, proofError(ctx, base, bespoke, env, rep)
		}
		mres, err := equiv.ProveMiter(ctx, env, bespoke.N, rep, opts.ProveOpts)
		if err != nil {
			return nil, fmt.Errorf("program %d: %w", pi, err)
		}
		if !mres.Equivalent {
			return nil, fmt.Errorf("program %d: %w (first mismatch at %s)", pi, ErrNotEquivalent, mres.Mismatch)
		}
		if isum != nil {
			isum.Provenance = induct.BuildProvenance(env.Invariants, rep)
		}
		out = append(out, ProofResult{Program: pi, Claims: rep, Miter: mres, Induct: isum})
	}
	return out, nil
}

// strengthen runs the inductive invariant engine for one program and
// rewires the proof environment onto the proved invariants: per-claim
// proofs and the miter then carry no dynamic-analysis hypotheses. As a
// soundness tripwire, every dynamically recorded bus value is checked to
// lie inside each proved bus invariant — a witnessed reachable state
// escaping a "proved" over-approximation means the engine (or the
// recorder) is broken, and the flow fails loudly instead of trusting the
// proofs.
func strengthen(ctx context.Context, base *cpu.Core, union *symexec.Result, env *equiv.Env, opts Options) (*InductSummary, error) {
	spec, err := induct.NewCoreSpec(base, union, induct.DefaultSampleCycles)
	if err != nil {
		return nil, fmt.Errorf("induct spec: %w", err)
	}
	ires, err := induct.Prove(ctx, spec, env.Claims, induct.Options{
		K:           opts.InductK,
		QueryBudget: opts.ProveOpts.QueryBudget,
	})
	if err != nil {
		return nil, fmt.Errorf("induct: %w", err)
	}
	if diffs := symexec.CompareDomains(union.BusDomains, provedDomains(ires.Invariants)); len(diffs) > 0 {
		return nil, fmt.Errorf("induct: proved invariants contradict the dynamic record (soundness bug):\n  %s",
			strings.Join(diffs, "\n  "))
	}
	env.Invariants = ires.Invariants
	env.InductCore = ires.Core
	return &InductSummary{
		K:               ires.K,
		Invariants:      len(ires.Invariants),
		Core:            len(ires.Core),
		Candidates:      ires.Candidates,
		Dropped:         ires.Dropped,
		Queries:         ires.Queries,
		Conflicts:       ires.Conflicts,
		BudgetExhausted: ires.BudgetExhausted,
	}, nil
}

// provedDomains projects the proved cube invariants onto symexec's bus
// domain shape for the dynamic-vs-proved cross-check. The bus name is the
// invariant name up to the '#' variant tag, so every variant ("r0",
// "r0#stuck", "r0#range") is checked against the recorded "r0" values.
func provedDomains(invs []equiv.Invariant) []symexec.BusDomain {
	var out []symexec.BusDomain
	for i := range invs {
		iv := &invs[i]
		if !iv.IsCube() {
			continue
		}
		name := iv.Name
		if j := strings.IndexByte(name, '#'); j >= 0 {
			name = name[:j]
		}
		out = append(out, symexec.BusDomain{Name: name, Bits: iv.Bits, Words: iv.Cubes})
	}
	return out
}

// proofError converts the first refutation into a *equiv.ProofError,
// replaying its counterexample in cosimulation so the error carries a
// demonstrated divergence, not just a SAT model.
func proofError(ctx context.Context, base, bespoke *cpu.Core, env *equiv.Env, rep *equiv.Report) error {
	refs := rep.Refutations()
	first := refs[0]
	g := env.N.Gates[first.Claim.Gate]
	perr := &equiv.ProofError{
		Gate:           first.Claim.Gate,
		Kind:           g.Kind,
		Name:           g.Name,
		Claimed:        first.Claim.Val,
		Counterexample: first.Counterexample,
		Refuted:        rep.Refuted,
	}
	if first.Counterexample != nil {
		// Best effort: a replay failure must not mask the refutation.
		if div, err := equiv.Replay(ctx, base, bespoke, first.Counterexample); err == nil {
			perr.Divergence = div
		}
	}
	return perr
}
