// Infield: product-lifecycle support for bespoke processors (the paper's
// Section 5.3). Shows (1) checking whether a bug-fix update already runs
// on the deployed bespoke silicon, (2) hardening a design against common
// bugs by co-designing with generated mutants, and (3) the
// Turing-complete subneg fallback for arbitrary updates.
package main

import (
	"context"
	"fmt"
	"log"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/mutate"
	"bespoke/internal/symexec"
)

func main() {
	b := bench.ByName("rle")
	app, appCore, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// (1) Which single-operator bug fixes does the deployed design
	// already support (mutant gates are a subset of kept gates)?
	muts, err := mutate.Generate(b)
	if err != nil {
		log.Fatal(err)
	}
	sup, err := mutate.CheckSupport(context.Background(), b, app, muts, mutate.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rle: %d candidate bug-fix updates, %d supported by the deployed bespoke design\n",
		sup.Total, sup.Supported)
	byType := mutate.CountByType(muts)
	for _, ty := range []mutate.Type{mutate.TypeI, mutate.TypeII, mutate.TypeIII} {
		fmt.Printf("  type %-3s %2d mutants, %2d supported\n", ty, byType[ty], sup.SupportedByType[ty])
	}

	// (2) Hardened design: tailor to the app plus every mutant.
	kept := 0
	for _, t := range sup.Union.Toggled {
		if t {
			kept++
		}
	}
	appKept := 0
	for _, t := range app.Toggled {
		if t {
			appKept++
		}
	}
	fmt.Printf("hardened design keeps %d gates (app alone: %d, baseline: %d)\n",
		kept, appKept, appCore.N.CellCount())

	// (3) subneg-enhanced design: arbitrary updates forever.
	sn := bench.Subneg()
	appOnly, err := core.Tailor(context.Background(), b.MustProg(), b.Workload(1), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	combined, err := core.TailorMulti(
		context.Background(),
		[]*asm.Program{b.MustProg(), sn.MustProg()},
		[]*core.Workload{b.Workload(1), sn.Workload(1)},
		core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subneg-enhanced: area %.0f -> %.0f um2 (%.1f%% overhead), still %.1f%% below baseline\n",
		appOnly.Bespoke.Power.AreaUm2, combined.Bespoke.Power.AreaUm2,
		100*(combined.Bespoke.Power.AreaUm2/appOnly.Bespoke.Power.AreaUm2-1),
		100*combined.AreaSavings)

	// Prove it: run a subneg "update" program on the combined design.
	tr, err := core.RunWorkload(context.Background(), combined.BespokeCore, sn.MustProg(), sn.Workload(7))
	if err != nil {
		log.Fatalf("subneg update on combined design: %v", err)
	}
	fmt.Printf("arbitrary update executed on the bespoke chip: out=%v\n", tr.Out)
}
