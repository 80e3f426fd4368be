package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/equiv"
	"bespoke/internal/induct"
)

// proveRow is one target's proof outcome.
type proveRow struct {
	Name     string  `json:"name"`
	Claims   int     `json:"claims"`
	Proved   int     `json:"proved"` // structural + SAT + induction
	Struct   int     `json:"proved_structural"`
	SAT      int     `json:"proved_sat"`
	Induct   int     `json:"proved_induct,omitempty"`
	Assumed  int     `json:"assumed"`
	Refuted  int     `json:"refuted"`
	Queries  int64   `json:"sat_queries"`
	Miter    bool    `json:"miter_equivalent"`
	MiterObs int     `json:"miter_obligations"`
	Ms       float64 `json:"ms"`
	Timeout  bool    `json:"timeout,omitempty"`
	Error    string  `json:"error,omitempty"`

	// Inductive strengthening summary (present with -induct).
	K              int                      `json:"induct_k,omitempty"`
	Invariants     int                      `json:"invariants,omitempty"`
	InvariantsUsed int                      `json:"invariants_used,omitempty"`
	Candidates     int                      `json:"induct_candidates,omitempty"`
	InductRounds   int64                    `json:"induct_rounds,omitempty"`
	InductQueries  int64                    `json:"induct_queries,omitempty"`
	InductConfl    int64                    `json:"induct_conflicts,omitempty"`
	InvariantTable []induct.InvariantRecord `json:"invariant_table,omitempty"`
}

// proveCmd runs the flow's formal gate (core.Prove) on each target, as
// core.Tailor applies it with Options.Prove but without placement or
// signoff, so no target's inputs are used: the activity analysis, the
// cut and re-synthesis, the lint gate, every claimed constant discharged
// as a SAT proof obligation, and a miter of the bespoke netlist against
// the baseline. With -induct, k-induction first proves reachable-state
// invariants, which replace the recorded bus values as the proofs'
// hypotheses once those values are checked to lie inside them
// (symexec.CompareDomains). A target that fails or times out gets a row
// saying so, a timeout keeping the tallies settled before it, and the
// sweep goes on.
func proveCmd(fs *flag.FlagSet) runFunc {
	jsonOut := fs.Bool("json", false, "emit the results as JSON")
	workers := fs.Int("workers", 0, "parallel proof workers (0 = all cores)")
	budget := fs.Int64("budget", 0, "per-query conflict budget (0 = default)")
	useInduct := fs.Bool("induct", false, "infer and prove reachable-state invariants by k-induction; drop the dynamic-domain hypotheses")
	kDepth := fs.Int("k", 0, "maximum induction ladder depth with -induct (0 = engine default)")
	showInv := fs.Bool("invariants", false, "print the proved-invariant table per target (implies -induct)")
	maxAssumed := fs.Int("max-assumed", -1, "reject the sweep when its total assumed claims exceed this (-1 = no gate)")
	return func(ctx context.Context, args []string, stdout, _ io.Writer) error {
		if *kDepth != 0 && !*useInduct && !*showInv {
			return errors.New("-k caps the induction ladder; it needs -induct or -invariants")
		}
		if len(args) == 0 {
			return errors.New("nothing to prove: pass benchmark names or .s files")
		}
		targets, err := load(args)
		if err != nil {
			return err
		}
		opts := core.Options{
			ProveOpts: equiv.Options{Workers: *workers, QueryBudget: *budget},
			Induct:    *useInduct || *showInv,
			InductK:   *kDepth,
		}
		st := &exitStatus{}
		totalAssumed := 0
		var rows []proveRow
		for _, b := range targets {
			r, code := prove(ctx, b, opts)
			rows = append(rows, r)
			totalAssumed += r.Assumed
			if !*jsonOut {
				writeProveRow(stdout, r)
				if *showInv {
					writeInvariants(stdout, r)
				}
			}
			st.code = max(st.code, code)
		}
		if *maxAssumed >= 0 && totalAssumed > *maxAssumed {
			st.code = max(st.code, 1)
			st.msg = fmt.Sprintf("%d claims assumed across the sweep, budget is %d", totalAssumed, *maxAssumed)
		}
		if *jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rows); err != nil {
				return err
			}
		}
		if st.code == 0 {
			return nil
		}
		return st
	}
}

// prove runs the flow's formal gate on one target and returns its row
// with the target's exit status: 0 when the gate passes, 1 when it
// rejects the design (a refuted claim or a failed miter), 2 on any other
// error or a timeout. Errors are folded into the row so a sweep keeps
// going; a timeout keeps the claim tallies settled before it.
func prove(ctx context.Context, b *bench.Benchmark, opts core.Options) (r proveRow, code int) {
	r = proveRow{Name: b.Name}
	start := time.Now()
	defer func() { r.Ms = float64(time.Since(start).Microseconds()) / 1000 }()

	proofs, err := core.Prove(ctx, []*asm.Program{b.MustProg()}, opts)
	var pe *equiv.ProofError
	var le *equiv.LimitError
	switch {
	case err == nil:
	case errors.As(err, &pe):
		r.Refuted, r.Error = pe.Refuted, err.Error()
		return r, 1
	case errors.Is(err, core.ErrNotEquivalent):
		r.Error = err.Error()
		return r, 1
	case errors.As(err, &le) && le.Report != nil:
		r.Timeout = true
		r.tally(le.Report)
		return r, 2
	default:
		r.Error = err.Error()
		return r, 2
	}

	pr := proofs[0]
	r.tally(pr.Claims)
	r.Miter = pr.Miter.Equivalent
	r.MiterObs = pr.Miter.Obligations
	if is := pr.Induct; is != nil {
		r.K = is.K
		r.Invariants = is.Invariants
		r.Candidates = is.Candidates
		r.InductRounds = is.Queries // one solve per Houdini round
		r.InductQueries = is.Queries
		r.InductConfl = is.Conflicts
		r.InvariantTable = is.Provenance.Invariants
		for _, rec := range r.InvariantTable {
			if rec.Used > 0 {
				r.InvariantsUsed++
			}
		}
	}
	return r, 0
}

// tally copies a claim report's verdict counts into the row.
func (r *proveRow) tally(rep *equiv.Report) {
	r.Claims = len(rep.Results)
	r.Struct = rep.ProvedStructural
	r.SAT = rep.ProvedSAT
	r.Induct = rep.ProvedInduct
	r.Proved = rep.Proved()
	r.Assumed = rep.Assumed
	r.Refuted = rep.Refuted
	r.Queries = rep.SATQueries
}

func writeProveRow(w io.Writer, r proveRow) {
	if r.Error != "" {
		label := "ERROR"
		if r.Refuted > 0 {
			label = "REFUTED"
		}
		fmt.Fprintf(w, "%-18s %s: %s\n", r.Name, label, r.Error)
		return
	}
	status := "proved"
	if r.Timeout {
		status = "timeout (partial)"
	}
	miter := "-"
	if r.MiterObs > 0 {
		miter = fmt.Sprintf("ok/%d", r.MiterObs)
	}
	ind := ""
	if r.K > 0 {
		ind = fmt.Sprintf(" %4d induct(k=%d, %d/%d inv used)", r.Induct, r.K, r.InvariantsUsed, r.Invariants)
	}
	fmt.Fprintf(w, "%-18s %5d claims: %5d structural %5d sat%s %4d assumed %3d refuted  miter %-8s %7.0fms  %s\n",
		r.Name, r.Claims, r.Struct, r.SAT, ind, r.Assumed, r.Refuted, miter, r.Ms, status)
}

// writeInvariants prints a target's proved-invariant table.
func writeInvariants(w io.Writer, r proveRow) {
	for _, row := range r.InvariantTable {
		shape := "implication"
		if row.Cubes > 0 {
			shape = fmt.Sprintf("%d cubes", row.Cubes)
		}
		fmt.Fprintf(w, "    %-28s k=%d  %-12s used by %d proofs\n", row.Name, row.K, shape, row.Used)
	}
}
