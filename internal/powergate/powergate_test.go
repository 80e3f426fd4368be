package powergate

import (
	"testing"

	"bespoke/internal/bench"
)

func TestOracleSavesLittle(t *testing.T) {
	b := bench.IntAVG()
	rep, err := Analyze(b.MustProg(), b.Workload(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("intAVG oracle gating: %.1f%% (%.1f of %.1f uW)", 100*rep.SavingsFrac, rep.SavedUW, rep.TotalUW)
	for _, m := range rep.Modules {
		t.Logf("  %-14s %5d gates, idle %5.1f%%, static %6.2f uW", m.Name, m.Gates, 100*m.IdleFrac, m.StaticUW)
	}
	if rep.SavingsFrac <= 0 {
		t.Error("oracle saved nothing; the multiplier should idle completely")
	}
	// The paper's Figure 15: oracular module gating saves < 13%,
	// far below any bespoke design (minimum 37%). Allow some slack in
	// our substrate but require the qualitative gap.
	if rep.SavingsFrac > 0.30 {
		t.Errorf("oracle savings %.2f implausibly high for module-level gating", rep.SavingsFrac)
	}
}

func TestIdleModulesDetected(t *testing.T) {
	// A program that never multiplies must show the multiplier idle in
	// essentially every cycle.
	b := bench.ConvEn()
	rep, err := Analyze(b.MustProg(), b.Workload(1))
	if err != nil {
		t.Fatal(err)
	}
	var multIdle, feIdle float64
	for _, m := range rep.Modules {
		switch m.Name {
		case "multiplier":
			multIdle = m.IdleFrac
		case "frontend":
			feIdle = m.IdleFrac
		}
	}
	if multIdle < 0.95 {
		t.Errorf("multiplier idle %.2f, want ~1.0", multIdle)
	}
	if feIdle > 0.2 {
		t.Errorf("frontend idle %.2f, want ~0 (it runs every cycle)", feIdle)
	}
}

// TestUnknownPCIsAnError: binSearch without its workload branches on
// uninitialized RAM, so its program counter picks up unknown bits; the
// oracle returns an error instead of panicking its caller.
func TestUnknownPCIsAnError(t *testing.T) {
	if _, err := Analyze(bench.ByName("binSearch").MustProg(), nil); err == nil {
		t.Fatal("a run with an unknown program counter was accepted")
	}
}
