// Command bespoke-faults runs the gate-level fault-injection campaigns:
// cut validation (every removed gate stuck at its claimed constant must
// be invisible; the opposite constant must be detectable), the SEU
// vulnerability comparison between the baseline and the bespoke design,
// and the combinational SET resilience signoff (seeded transient pulses
// on gate outputs, classified masked / latched-silent / visible and
// aggregated into per-module vulnerability maps).
//
// Usage:
//
//	bespoke-faults [-bench all|quick|name,...] [-faults N] [-seu N] [-set N]
//	               [-set-budget F] [-map] [-markdown]
//	               [-workers N] [-seed S] [-timeout D]
//
// Campaigns run on the bit-parallel engine (63 faulty worlds plus a
// golden guard lane per simulator pass); the summary and the -markdown
// tables report campaign throughput (injections/sec).
//
// The command exits nonzero if any claimed-constant injection diverges
// (the activity analysis would be wrong) or if -set-budget is exceeded
// by the bespoke design's architecturally visible SET fraction (the
// resilience signoff rejects the tailored core).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/faultinject"
	"bespoke/internal/report"
)

func main() {
	benches := flag.String("bench", "quick", "benchmarks: all, quick, or a comma-separated list")
	faults := flag.Int("faults", 96, "stuck-at injections sampled per campaign (0 = every cut site)")
	seus := flag.Int("seu", 48, "random SEU injections per design")
	sets := flag.Int("set", 48, "random SET injections per design (0 disables the resilience stage)")
	setBudget := flag.Float64("set-budget", 0, "tolerated visible SET fraction on the bespoke design (0 = report only, negative = zero tolerance)")
	showMap := flag.Bool("map", false, "print the per-module SET vulnerability maps")
	markdown := flag.Bool("markdown", false, "render tables as markdown (for the experiment docs)")
	workers := flag.Int("workers", 0, "worker pool width (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 1, "campaign sampling seed")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for all campaigns (0 = unlimited)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	list, err := pick(*benches)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bespoke-faults:", err)
		os.Exit(2)
	}
	cfg := campaignConfig{
		opts:      faultinject.Options{Workers: *workers, MaxFaults: *faults, Seed: *seed},
		seus:      *seus,
		sets:      *sets,
		setBudget: *setBudget,
		showMap:   *showMap,
		markdown:  *markdown,
	}
	if err := run(ctx, list, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bespoke-faults:", err)
		os.Exit(1)
	}
}

// quick is the subset used by CI and local smoke runs.
var quick = []string{"binSearch", "intAVG", "intFilt", "mult", "dbg"}

func pick(spec string) ([]*bench.Benchmark, error) {
	var names []string
	switch spec {
	case "all":
		var list []*bench.Benchmark
		for _, b := range bench.All() {
			list = append(list, b)
		}
		return list, nil
	case "quick":
		names = quick
	default:
		names = strings.Split(spec, ",")
	}
	var list []*bench.Benchmark
	for _, n := range names {
		b := bench.ByName(strings.TrimSpace(n))
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %q", n)
		}
		list = append(list, b)
	}
	return list, nil
}

// campaignConfig bundles the campaign knobs.
type campaignConfig struct {
	opts      faultinject.Options
	seus      int
	sets      int
	setBudget float64
	showMap   bool
	markdown  bool
}

func run(ctx context.Context, list []*bench.Benchmark, cfg campaignConfig) error {
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
		prog, err := b.Prog()
		if err != nil {
			return err
		}
		w := b.Workload(1)
		fmt.Printf("tailoring %s...\n", b.Name)
		tailorOpts := core.Options{}
		if cfg.sets > 0 {
			tailorOpts.Resilience = &core.ResilienceOptions{
				Faults:     cfg.sets,
				Seed:       cfg.opts.Seed,
				Workers:    cfg.opts.Workers,
				MaxVisible: cfg.setBudget,
				Run:        faultinject.TailorGate,
			}
		}
		res, err := core.Tailor(ctx, prog, w, tailorOpts)
		var rep *core.ResilienceReport
		if err != nil {
			var re *core.ResilienceError
			if !errors.As(err, &re) {
				return fmt.Errorf("%s: tailor: %w", b.Name, err)
			}
			// The resilience signoff rejected the tailored core: keep the
			// report so the tables still show what the campaign saw, and
			// fail after the full catalog has been characterized.
			mod, frac := re.WorstModule()
			violations = append(violations,
				fmt.Sprintf("%s: %v (worst module %s at %s visible)", b.Name, re, mod, report.Pct(frac)))
			rep = re.Report
			// Rerun without the budget to get the cores for the
			// remaining campaigns.
			tailorOpts.Resilience = nil
			res, err = core.Tailor(ctx, prog, w, tailorOpts)
			if err != nil {
				return fmt.Errorf("%s: tailor: %w", b.Name, err)
			}
		} else {
			rep = res.Resilience
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
				fmt.Fprintf(os.Stderr, "%s: MISMATCH %s: %s (%s)\n", b.Name, d.Fault, d.Outcome, d.Detail)
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

		if rep != nil {
			setT.AddRow(b.Name,
				fmt.Sprint(rep.Baseline.Sites), fmt.Sprint(rep.Bespoke.Sites),
				report.Pct(1-float64(rep.Bespoke.Sites)/float64(rep.Baseline.Sites)),
				fmt.Sprint(rep.Baseline.Masked), fmt.Sprint(rep.Baseline.Latched), fmt.Sprint(rep.Baseline.Visible),
				fmt.Sprint(rep.Bespoke.Masked), fmt.Sprint(rep.Bespoke.Latched), fmt.Sprint(rep.Bespoke.Visible))
			addModuleRows(modT, b.Name, "base", rep.Baseline.Modules)
			addModuleRows(modT, b.Name, "bespoke", rep.Bespoke.Modules)
		}
	}
	render := func(t *report.Table) {
		if cfg.markdown {
			t.WriteMarkdown(os.Stdout)
		} else {
			t.Write(os.Stdout)
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
	fmt.Printf("\n%d injections across %d simulator passes in %.2fs — %s injections/sec\n",
		total.injections, total.batches, total.elapsed.Seconds(), total.rate())
	if bad > 0 {
		return fmt.Errorf("%d benchmark(s) had claimed-constant divergence: the analysis is unsound", bad)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		return fmt.Errorf("%d benchmark(s) failed the SET resilience signoff", len(violations))
	}
	fmt.Println("\nAll claimed-constant injections were invisible: the cut set is validated.")
	return nil
}

func addModuleRows(t *report.Table, benchName, design string, mods []core.ModuleVuln) {
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
