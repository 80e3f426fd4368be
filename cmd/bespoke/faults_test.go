package main

import (
	"strings"
	"testing"

	"bespoke/internal/faultinject"
)

// TestSETBudget applies the -set-budget rule to synthetic bespoke SET
// campaigns of eight strikes: 0 only reports, a negative budget
// tolerates no visible strike, a fraction equal to the budget passes,
// and a violation names the module with the highest visible fraction,
// the first in name order on a tie.
func TestSETBudget(t *testing.T) {
	alu := faultinject.ModuleVuln{Module: "alu", Injected: 8, Masked: 6, Visible: 2}
	cases := []struct {
		name    string
		budget  float64
		visible int
		mods    []faultinject.ModuleVuln
		want    string // "" passes
	}{
		{"over the budget", 0.1, 2, []faultinject.ModuleVuln{alu},
			"visible SET fraction 0.2500 exceeds budget 0.1000 (bespoke: 2/8 visible, worst module alu at 25.0% visible)"},
		{"report only", 0, 8, []faultinject.ModuleVuln{{Module: "alu", Injected: 8, Visible: 8}}, ""},
		{"zero tolerance with a visible strike", -1, 1, []faultinject.ModuleVuln{{Module: "alu", Injected: 8, Masked: 7, Visible: 1}},
			"visible SET fraction 0.1250 exceeds budget 0.0000 (bespoke: 1/8 visible, worst module alu at 12.5% visible)"},
		{"zero tolerance with every strike masked", -1, 0, []faultinject.ModuleVuln{{Module: "alu", Injected: 8, Masked: 8}}, ""},
		{"equal to the budget", 0.25, 2, []faultinject.ModuleVuln{alu}, ""},
		{"tie between modules", 0.1, 2, []faultinject.ModuleVuln{
			{Module: "alu", Injected: 4, Masked: 3, Visible: 1},
			{Module: "glue", Injected: 4, Masked: 3, Visible: 1},
		}, "worst module alu at 25.0% visible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := &faultinject.Report{Injected: 8, Masked: 8 - tc.visible, SDCs: tc.visible}
			err := checkSETBudget(tc.budget, rep, tc.mods)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("got %v, want a violation naming %q", err, tc.want)
			}
		})
	}
}
