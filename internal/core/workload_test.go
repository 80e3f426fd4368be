package core_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/symexec"
)

// TestRunWorkloadUnknownPCIsAnError: binSearch run without its workload
// searches uninitialized RAM and branches on it, so its program counter
// picks up unknown bits. The run fails as a *FlowError in the workload
// stage that names the cycle, not as a recovered panic.
func TestRunWorkloadUnknownPCIsAnError(t *testing.T) {
	p := bench.ByName("binSearch").MustProg()
	_, err := core.RunWorkload(context.Background(), cpu.Build(), p, nil)
	var fe *core.FlowError
	if !errors.As(err, &fe) || fe.Stage != "workload" {
		t.Fatalf("want a *FlowError in stage workload, got %T: %v", err, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "cycle ") || strings.Contains(msg, "panic:") {
		t.Fatalf("error should name the cycle and not be a recovered panic: %v", err)
	}
}

// TestAnalyzedCoreRunsLikeFresh: the flow signs off, cuts and proves the
// core its analysis ran on, so the analysis must leave nothing a later
// run reads. On binSearch (RAM inputs) and irq (interrupts), an analyzed
// core runs its workload exactly like a freshly built one: the same
// outputs, cycle count and per-gate toggle counts.
func TestAnalyzedCoreRunsLikeFresh(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"binSearch", "irq"} {
		b := bench.ByName(name)
		p, w := b.MustProg(), b.Workload(1)
		_, analyzed, err := core.Analyze(ctx, p, symexec.Options{RecordDomains: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := core.RunWorkload(ctx, analyzed, p, w)
		if err != nil {
			t.Fatalf("%s on the analyzed core: %v", name, err)
		}
		want, err := core.RunWorkload(ctx, cpu.Build(), p, w)
		if err != nil {
			t.Fatalf("%s on a fresh core: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the analyzed core ran %d cycles, out %v; a fresh one %d cycles, out %v (or the toggles differ)",
				name, got.Cycles, got.Out, want.Cycles, want.Out)
		}
	}
}
