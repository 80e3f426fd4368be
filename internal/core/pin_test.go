package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/power"
)

// tailorDigest is the SHA-256 of the text TestTailorQuickPinned writes.
// Only a change that moves the flow's results by design re-records it
// (a cell-library figure, a cut or analysis rule, a signoff model), with
// the old and new digests in CHANGES.md. A refactor or a speedup must
// keep it.
const tailorDigest = "8ecb3aacb469325b2e5de5c08e8f547eab8486c649c32030fa3f8d4ae072d2c8"

// rounded prints a figure to six significant digits, so the digest
// reads the printed values and not float bits that fused multiply-adds
// may move.
func rounded(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }

func writePower(w io.Writer, p power.Report) {
	fmt.Fprintf(w, " dyn=%s clk=%s leak=%s total=%s area=%s cells=%d dffs=%d",
		rounded(p.DynamicUW), rounded(p.ClockUW), rounded(p.LeakUW), rounded(p.TotalUW), rounded(p.AreaUm2), p.Cells, p.Dffs)
}

func writeMetrics(w io.Writer, name string, m core.Metrics) {
	t := m.Timing
	fmt.Fprintf(w, "  %s gates=%d dffs=%d crit=%s clock=%s slack=%s vmin=%s fmax=%s",
		name, m.Gates, m.Dffs, rounded(t.CriticalPs), rounded(t.ClockPs), rounded(t.SlackFrac), rounded(t.Vmin), rounded(t.FMaxHz))
	writePower(w, m.Power)
	fmt.Fprintln(w)
}

// writeResult prints every number a core.Result reports in one fixed,
// rounded format.
func writeResult(w io.Writer, name string, r *core.Result) {
	fmt.Fprintln(w, name)
	writeMetrics(w, "baseline", r.Baseline)
	writeMetrics(w, "bespoke", r.Bespoke)
	fmt.Fprint(w, "  vmin")
	writePower(w, r.BespokeAtVmin)
	fmt.Fprintln(w)
	a := r.Analysis
	fmt.Fprintf(w, "  cut=%d kept=%d folded=%d collapsed=%d dead=%d passes=%d paths=%d merges=%d cycles=%d\n",
		r.CutStats.Cut, r.CutStats.Kept, r.SynthStats.Folded, r.SynthStats.Collapsed, r.SynthStats.Dead,
		r.SynthStats.Passes, a.Paths, a.Merges, a.Cycles)
	fmt.Fprintf(w, "  savings gate=%s area=%s power=%s vmin=%s\n",
		rounded(r.GateSavings), rounded(r.AreaSavings), rounded(r.PowerSavings), rounded(r.PowerSavingsVmin))
}

// TestTailorQuickPinned pins core.Tailor's numbers: each bench.Quick()
// program tailored alone, then all five together with TailorMulti, every
// one under its Workload(1). No quick program's analysis merges a state,
// so div, whose analysis merges twice, is tailored alone too and pins
// the merge bound. The SHA-256 of writeResult's text over the seven
// tailorings must equal tailorDigest.
func TestTailorQuickPinned(t *testing.T) {
	ctx := context.Background()
	var sb strings.Builder
	for _, b := range append(bench.Quick(), bench.ByName("div")) {
		res, err := core.Tailor(ctx, b.MustProg(), b.Workload(1), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		writeResult(&sb, b.Name, res)
	}
	var (
		progs []*asm.Program
		ws    []*core.Workload
	)
	for _, b := range bench.Quick() {
		progs, ws = append(progs, b.MustProg()), append(ws, b.Workload(1))
	}
	res, err := core.TailorMulti(ctx, progs, ws, core.Options{})
	if err != nil {
		t.Fatalf("quick union: %v", err)
	}
	writeResult(&sb, "quick union", res)
	sum := sha256.Sum256([]byte(sb.String()))
	if got := hex.EncodeToString(sum[:]); got != tailorDigest {
		t.Fatalf("tailoring digest %s, want %s: a tailored figure changed\n%s", got, tailorDigest, sb.String())
	}
}
