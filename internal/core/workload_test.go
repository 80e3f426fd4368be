package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
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
