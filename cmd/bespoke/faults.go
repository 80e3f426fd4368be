package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/faultinject"
	"bespoke/internal/report"
)

// faultsCmd runs the gate-level fault-injection campaigns on each
// tailored target: cut validation (every removed gate stuck at its
// claimed constant must be invisible; the opposite constant must be
// detectable), the SEU vulnerability comparison between the baseline and
// the bespoke design, and the combinational SET resilience comparison
// (seeded transient pulses on gate outputs, classified masked /
// latched-silent / visible and aggregated into per-module vulnerability
// maps). Campaigns run on the bit-parallel engine (63 faulty worlds plus
// a golden guard lane per simulator pass), and the tables report their
// throughput.
//
// A claimed-constant injection that diverges (the activity analysis
// would be wrong) rejects the design, as does a bespoke design whose
// architecturally visible SET fraction exceeds -set-budget.
func faultsCmd(fs *flag.FlagSet) runFunc {
	var cfg campaignConfig
	fs.IntVar(&cfg.opts.MaxFaults, "faults", 96, "stuck-at injections sampled per campaign (0 = every cut site)")
	fs.IntVar(&cfg.seus, "seu", 48, "random SEU injections per design")
	fs.IntVar(&cfg.sets, "set", 48, "random SET injections per design (0 disables the SET comparison)")
	fs.Float64Var(&cfg.setBudget, "set-budget", 0, "tolerated visible SET fraction on the bespoke design (0 = report only, negative = zero tolerance)")
	fs.BoolVar(&cfg.showMap, "map", false, "print the per-module SET vulnerability maps")
	fs.BoolVar(&cfg.markdown, "markdown", false, "render tables as markdown (for the experiment docs)")
	fs.IntVar(&cfg.opts.Workers, "workers", 0, "worker pool width (0 = GOMAXPROCS)")
	fs.Uint64Var(&cfg.opts.Seed, "seed", 1, "campaign sampling seed")
	return func(ctx context.Context, args []string, stdout, stderr io.Writer) error {
		for _, f := range []struct {
			name string
			n    int
		}{{"-faults", cfg.opts.MaxFaults}, {"-seu", cfg.seus}, {"-set", cfg.sets}} {
			if f.n < 0 {
				return fmt.Errorf("%s %d: an injection count cannot be negative", f.name, f.n)
			}
		}
		if cfg.sets == 0 {
			var ignored []string
			if cfg.setBudget != 0 {
				ignored = append(ignored, "-set-budget")
			}
			if cfg.showMap {
				ignored = append(ignored, "-map")
			}
			if len(ignored) > 0 {
				return fmt.Errorf("-set %d runs no SET campaign; it takes no %s", cfg.sets, strings.Join(ignored, ", "))
			}
		}
		if len(args) == 0 {
			args = []string{"quick"}
		}
		targets, err := load(args)
		if err != nil {
			return err
		}
		return runCampaigns(ctx, targets, cfg, stdout, stderr)
	}
}

// campaignConfig holds the campaign flags.
type campaignConfig struct {
	opts      faultinject.Options
	seus      int
	sets      int
	setBudget float64
	showMap   bool
	markdown  bool
}

func runCampaigns(ctx context.Context, list []*bench.Benchmark, cfg campaignConfig, stdout, stderr io.Writer) error {
	cutT := report.NewTable("Cut validation (stuck-at campaigns)",
		"Bench", "Cut sites", "Injected", "Claimed diverged", "Opposite diverged")
	seuT := report.NewTable("SEU vulnerability (baseline vs bespoke)",
		"Bench", "Cells base", "Cells bespoke", "Site savings", "DFFs base", "DFFs bespoke", "Vuln base", "Vuln bespoke")
	setT := report.NewTable("SET resilience (baseline vs bespoke)",
		"Bench", "Sites base", "Sites bespoke", "Site savings",
		"Msk base", "Lat base", "Vis base", "Msk besp", "Lat besp", "Vis besp")
	modT := report.NewTable("SET per-module vulnerability map",
		"Bench", "Design", "Module", "Sites", "Injected", "Masked", "Latched", "Visible")
	thrT := report.NewTable("Campaign throughput",
		"Bench", "Injections", "Sim passes", "Elapsed", "Inj/s")
	var total throughput
	bad := 0
	var violations []string
	for _, b := range list {
		prog := b.MustProg()
		w := b.Workload(1)
		fmt.Fprintf(stdout, "tailoring %s...\n", b.Name)
		res, err := core.Tailor(ctx, prog, w, core.Options{})
		if err != nil {
			return fmt.Errorf("%s: tailor: %w", b.Name, err)
		}

		var thr throughput
		claimed, err := faultinject.StuckAtClaimed(ctx, res.BaselineCore, prog, w, res.Analysis, cfg.opts)
		if err != nil {
			return fmt.Errorf("%s: claimed campaign: %w", b.Name, err)
		}
		opposite, err := faultinject.StuckAtOpposite(ctx, res.BaselineCore, prog, w, res.Analysis, cfg.opts)
		if err != nil {
			return fmt.Errorf("%s: opposite campaign: %w", b.Name, err)
		}
		cutT.AddRow(b.Name, fmt.Sprint(claimed.Sites), fmt.Sprint(claimed.Injected),
			fmt.Sprint(claimed.Divergent()), fmt.Sprint(opposite.Divergent()))
		if claimed.Divergent() > 0 {
			bad++
			for _, d := range claimed.Diverged {
				fmt.Fprintf(stderr, "%s: MISMATCH %s: %s (%s)\n", b.Name, d.Fault, d.Outcome, d.Detail)
			}
		}

		bCells, bDffs := faultinject.Sites(res.BaselineCore.N)
		sCells, sDffs := faultinject.Sites(res.BespokeCore.N)
		seuBase, err := faultinject.SEUCampaign(ctx, res.BaselineCore, prog, w, cfg.seus, cfg.opts)
		if err != nil {
			return fmt.Errorf("%s: baseline SEU campaign: %w", b.Name, err)
		}
		seuBesp, err := faultinject.SEUCampaign(ctx, res.BespokeCore, prog, w, cfg.seus, cfg.opts)
		if err != nil {
			return fmt.Errorf("%s: bespoke SEU campaign: %w", b.Name, err)
		}
		seuT.AddRow(b.Name,
			fmt.Sprint(bCells), fmt.Sprint(sCells), report.Pct(1-float64(sCells)/float64(bCells)),
			fmt.Sprint(bDffs), fmt.Sprint(sDffs),
			vuln(seuBase), vuln(seuBesp))

		thr.add(claimed, opposite, seuBase, seuBesp)
		total.add(claimed, opposite, seuBase, seuBesp)
		thrT.AddRow(b.Name, fmt.Sprint(thr.injections), fmt.Sprint(thr.batches),
			fmt.Sprintf("%.2fs", thr.elapsed.Seconds()), thr.rate())

		if cfg.sets == 0 {
			continue
		}
		// SET injections stay out of the throughput table.
		setBase, err := faultinject.SETCampaign(ctx, res.BaselineCore, prog, w, cfg.sets, cfg.opts)
		if err != nil {
			return fmt.Errorf("%s: baseline SET campaign: %w", b.Name, err)
		}
		setBesp, err := faultinject.SETCampaign(ctx, res.BespokeCore, prog, w, cfg.sets, cfg.opts)
		if err != nil {
			return fmt.Errorf("%s: bespoke SET campaign: %w", b.Name, err)
		}
		modsBase := faultinject.ModuleMap(res.BaselineCore.N, setBase)
		modsBesp := faultinject.ModuleMap(res.BespokeCore.N, setBesp)
		setT.AddRow(b.Name,
			fmt.Sprint(setBase.Sites), fmt.Sprint(setBesp.Sites),
			report.Pct(1-float64(setBesp.Sites)/float64(setBase.Sites)),
			fmt.Sprint(setBase.Masked), fmt.Sprint(setBase.Latched), fmt.Sprint(setBase.Divergent()),
			fmt.Sprint(setBesp.Masked), fmt.Sprint(setBesp.Latched), fmt.Sprint(setBesp.Divergent()))
		addModuleRows(modT, b.Name, "base", modsBase)
		addModuleRows(modT, b.Name, "bespoke", modsBesp)
		if err := checkSETBudget(cfg.setBudget, setBesp, modsBesp); err != nil {
			violations = append(violations, fmt.Sprintf("%s: %v", b.Name, err))
		}
	}
	render := func(t *report.Table) {
		if cfg.markdown {
			t.WriteMarkdown(stdout)
		} else {
			t.Write(stdout)
		}
	}
	render(cutT)
	render(seuT)
	if len(setT.Rows) > 0 {
		render(setT)
	}
	if cfg.showMap && len(modT.Rows) > 0 {
		render(modT)
	}
	render(thrT)
	fmt.Fprintf(stdout, "\n%d injections across %d simulator passes in %.2fs — %s injections/sec\n",
		total.injections, total.batches, total.elapsed.Seconds(), total.rate())
	if bad > 0 {
		return &exitStatus{code: 1, msg: fmt.Sprintf("%d benchmark(s) had claimed-constant divergence: the analysis is unsound", bad)}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stderr, v)
		}
		return &exitStatus{code: 1, msg: fmt.Sprintf("%d benchmark(s) failed the SET resilience signoff", len(violations))}
	}
	fmt.Fprintln(stdout, "\nAll claimed-constant injections were invisible: the cut set is validated.")
	return nil
}

// checkSETBudget applies -set-budget to the bespoke design's SET
// campaign rep, whose per-module map is mods. A budget of 0 only reports
// (it tolerates every strike), a negative one tolerates no visible
// strike, and a visible fraction equal to the budget passes. A violation
// names the visible fraction, the budget, the visible and injected
// counts, and the module with the highest visible fraction (the first
// in name order on a tie).
func checkSETBudget(budget float64, rep *faultinject.Report, mods []faultinject.ModuleVuln) error {
	switch {
	case budget == 0:
		budget = 1
	case budget < 0:
		budget = 0
	}
	frac := 0.0
	if rep.Injected > 0 {
		frac = float64(rep.Divergent()) / float64(rep.Injected)
	}
	if frac <= budget {
		return nil
	}
	worst := mods[0]
	for _, m := range mods[1:] {
		if m.VisibleFrac() > worst.VisibleFrac() {
			worst = m
		}
	}
	return fmt.Errorf("visible SET fraction %.4f exceeds budget %.4f (bespoke: %d/%d visible, worst module %s at %s visible)",
		frac, budget, rep.Divergent(), rep.Injected, worst.Module, report.Pct(worst.VisibleFrac()))
}

func addModuleRows(t *report.Table, benchName, design string, mods []faultinject.ModuleVuln) {
	for _, m := range mods {
		t.AddRow(benchName, design, m.Module,
			fmt.Sprint(m.Sites), fmt.Sprint(m.Injected),
			fmt.Sprint(m.Masked), fmt.Sprint(m.Latched), fmt.Sprint(m.Visible))
	}
}

// throughput aggregates campaign-level injection performance.
type throughput struct {
	injections int
	batches    int
	elapsed    time.Duration
}

func (t *throughput) add(reps ...*faultinject.Report) {
	for _, r := range reps {
		t.injections += r.Injected
		t.batches += r.Batches
		t.elapsed += r.Elapsed
	}
}

// rate formats injections per second of injection wall-clock time.
func (t *throughput) rate() string {
	if t.elapsed <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(t.injections)/t.elapsed.Seconds())
}

// vuln formats the fraction of SEU injections that were not masked.
func vuln(r *faultinject.Report) string {
	if r.Injected == 0 {
		return "-"
	}
	return report.Pct(float64(r.Divergent()) / float64(r.Injected))
}
