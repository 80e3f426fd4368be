// Command bespoke-prove runs the tailoring flow's formal gate
// (core.Prove) on each target application: the activity analysis, the
// cut and re-synthesis, the lint gate, then every claimed constant
// discharged as a SAT proof obligation (implied by the program image and
// the recorded reachable bus values) and the cut+re-synthesized netlist
// checked against the baseline with a miter. It is the gate core.Tailor
// applies with Options.Prove, without placement or signoff.
//
// Usage:
//
//	bespoke-prove -bench mult          # one Table 1 benchmark
//	bespoke-prove -bench all           # the whole suite
//	bespoke-prove -induct -bench all   # with inductive strengthening
//	bespoke-prove prog.s [more.s]      # assembly files
//
// With -induct, the static invariant engine (internal/induct) first
// infers and discharges reachable-state invariants by k-induction, and
// the dynamically recorded bus values are checked to lie inside them
// (symexec.CompareDomains, a soundness tripwire); the per-claim proofs
// and the miter then consume those PROVED facts instead of the recorded
// bus domains, and claims in the inductive core are upgraded. -k caps
// the induction ladder depth, -invariants prints the per-benchmark
// proved-invariant table (the proofs' provenance records), and
// -max-assumed N fails the sweep (exit 1) when the total of assumed
// claims exceeds N — the CI gate that keeps the assumption tail from
// regressing.
//
// The exit status is 0 when every claim is proved or explicitly assumed
// and the miter holds, 1 when any claim is refuted, a miter fails, or
// -max-assumed is exceeded, 2 on usage, flow or timeout errors. With
// -timeout, the claim tallies settled before the deadline are still
// reported.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/equiv"
	"bespoke/internal/induct"
)

type target struct {
	name string
	prog *asm.Program
}

// result is one target's proof outcome.
type result struct {
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

func main() {
	benches := flag.String("bench", "", `comma-separated Table 1 benchmark names, or "all"`)
	jsonOut := flag.Bool("json", false, "emit the results as JSON")
	workers := flag.Int("workers", 0, "parallel proof workers (0 = all cores)")
	budget := flag.Int64("budget", 0, "per-query conflict budget (0 = default)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget (0 = unlimited)")
	useInduct := flag.Bool("induct", false, "infer and prove reachable-state invariants by k-induction; drop the dynamic-domain hypotheses")
	kDepth := flag.Int("k", 0, "maximum induction ladder depth with -induct (0 = engine default)")
	showInv := flag.Bool("invariants", false, "print the proved-invariant table per benchmark (implies -induct)")
	maxAssumed := flag.Int("max-assumed", -1, "exit 1 when the sweep's total assumed claims exceed this (-1 = no gate)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	targets, err := gather(*benches, flag.Args())
	if err != nil {
		fatal(err)
	}

	opts := core.Options{
		ProveOpts: equiv.Options{Workers: *workers, QueryBudget: *budget},
		Induct:    *useInduct || *showInv,
		InductK:   *kDepth,
	}
	exit := 0
	totalAssumed := 0
	var results []result
	for _, tg := range targets {
		r, code := prove(ctx, tg, opts)
		results = append(results, r)
		totalAssumed += r.Assumed
		if !*jsonOut {
			writeText(os.Stdout, r)
			if *showInv {
				writeInvariants(os.Stdout, r)
			}
		}
		exit = max(exit, code)
	}
	if *maxAssumed >= 0 && totalAssumed > *maxAssumed {
		fmt.Fprintf(os.Stderr, "bespoke-prove: %d claims assumed across the sweep, budget is %d\n",
			totalAssumed, *maxAssumed)
		exit = max(exit, 1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fatal(err)
		}
	}
	os.Exit(exit)
}

// gather resolves benchmark names and assembly files into targets.
func gather(benches string, files []string) ([]target, error) {
	var targets []target
	if benches == "all" {
		for _, b := range bench.All() {
			targets = append(targets, target{name: b.Name, prog: b.MustProg()})
		}
	} else if benches != "" {
		for _, name := range strings.Split(benches, ",") {
			b := bench.ByName(strings.TrimSpace(name))
			if b == nil {
				return nil, fmt.Errorf("unknown benchmark %q (see internal/bench)", name)
			}
			targets = append(targets, target{name: b.Name, prog: b.MustProg()})
		}
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		p, err := asm.Assemble(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		targets = append(targets, target{name: f, prog: p})
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("nothing to prove: pass -bench names or assembly files")
	}
	return targets, nil
}

// prove runs the flow's formal gate on one target and returns its row
// with the target's exit status: 0 when the gate passes, 1 when it
// rejects the design (a refuted claim or a failed miter), 2 on any other
// error or a timeout. Errors are folded into the row so a sweep keeps
// going; a timeout keeps the claim tallies settled before it.
func prove(ctx context.Context, tg target, opts core.Options) (r result, code int) {
	r = result{Name: tg.name}
	start := time.Now()
	defer func() { r.Ms = float64(time.Since(start).Microseconds()) / 1000 }()

	proofs, err := core.Prove(ctx, []*asm.Program{tg.prog}, opts)
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
func (r *result) tally(rep *equiv.Report) {
	r.Claims = len(rep.Results)
	r.Struct = rep.ProvedStructural
	r.SAT = rep.ProvedSAT
	r.Induct = rep.ProvedInduct
	r.Proved = rep.Proved()
	r.Assumed = rep.Assumed
	r.Refuted = rep.Refuted
	r.Queries = rep.SATQueries
}

func writeText(w *os.File, r result) {
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

// writeInvariants prints the per-benchmark proved-invariant table.
func writeInvariants(w *os.File, r result) {
	for _, row := range r.InvariantTable {
		shape := "implication"
		if row.Cubes > 0 {
			shape = fmt.Sprintf("%d cubes", row.Cubes)
		}
		fmt.Fprintf(w, "    %-28s k=%d  %-12s used by %d proofs\n", row.Name, row.K, shape, row.Used)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bespoke-prove:", err)
	os.Exit(2)
}
