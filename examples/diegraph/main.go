// Diegraph: a textual rendering of the paper's die graphs (Figures 3, 4
// and 10) - which parts of the processor two applications can and cannot
// exercise, module by module.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/symexec"
)

func main() {
	a, b := bench.ByName("FFT"), bench.ByName("binSearch")
	if len(os.Args) == 3 {
		a, b = bench.ByName(os.Args[1]), bench.ByName(os.Args[2])
		if a == nil || b == nil {
			log.Fatalf("unknown benchmark (choose from %v)", names())
		}
	}

	ra, ca, err := core.Analyze(context.Background(), a.MustProg(), symexec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rb, _, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
	if err != nil {
		log.Fatal(err)
	}

	byMod := ca.N.GatesByModule()
	mods := make([]string, 0, len(byMod))
	for m := range byMod {
		mods = append(mods, m)
	}
	sort.Strings(mods)

	fmt.Printf("die graph: %s vs %s ('#': used by both, 'a'/'b': used by one, '.': dead weight)\n\n", a.Name, b.Name)
	for _, m := range mods {
		gates := byMod[m]
		var both, onlyA, onlyB, neither int
		for _, g := range gates {
			ta, tb := ra.Toggled[g], rb.Toggled[g]
			switch {
			case ta && tb:
				both++
			case ta:
				onlyA++
			case tb:
				onlyB++
			default:
				neither++
			}
		}
		const width = 50
		scale := func(n int) int { return (n*width + len(gates)/2) / len(gates) }
		bar := strings.Repeat("#", scale(both)) +
			strings.Repeat("a", scale(onlyA)) +
			strings.Repeat("b", scale(onlyB))
		if len(bar) < width {
			bar += strings.Repeat(".", width-len(bar))
		}
		fmt.Printf("%-14s %s  %4d gates, %3d%% removable for both\n",
			m, bar[:width], len(gates), 100*neither/len(gates))
	}
}

func names() []string {
	var out []string
	for _, b := range bench.All() {
		out = append(out, b.Name)
	}
	return out
}
