package bespoke

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

const tinyApp = `
        .org 0xF000
start:  mov #0x5A80, &WDTCTL
        mov #STACKTOP, sp
        mov #3, r4
        add #4, r4
        mov r4, &OUTPORT
        dint
        jmp $
        .org 0xFFFE
        .word start
`

func TestPublicAPITailor(t *testing.T) {
	prog, err := Assemble(tinyApp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tailor(context.Background(), prog, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GateSavings < 0.5 || res.PowerSavings < 0.3 {
		t.Errorf("savings too small: %+v", res)
	}
	var v bytes.Buffer
	if err := WriteVerilog(res, &v); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.String(), "module bespoke_core") {
		t.Error("verilog export broken")
	}
}

func TestPublicAPISupportsUpdate(t *testing.T) {
	prog, err := Assemble(tinyApp)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := SupportsUpdate(context.Background(), []*Program{prog}, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a program must support itself")
	}
	other, err := Assemble(strings.Replace(tinyApp, "add #4, r4", "mov #9, &MPY\n        mov #9, &OP2\n        mov &RESLO, r4", 1))
	if err != nil {
		t.Fatal(err)
	}
	ok, err = SupportsUpdate(context.Background(), []*Program{prog}, other, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("a multiplying update cannot run on a multiplier-free design")
	}
}

func TestPublicAPITailorMulti(t *testing.T) {
	a, _ := Assemble(tinyApp)
	b, err := Assemble(strings.Replace(tinyApp, "add #4, r4", "sub #1, r4", 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := TailorMulti(context.Background(), []*Program{a, b}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GateSavings <= 0 {
		t.Error("multi-program tailoring saved nothing")
	}
}

func TestMalformedInputNoPanic(t *testing.T) {
	// A nil program is rejected at the flow boundary.
	_, err := Tailor(context.Background(), nil, nil, Options{})
	if err == nil {
		t.Fatal("tailoring a nil program succeeded")
	}
	var fe *FlowError
	if !errors.As(err, &fe) {
		t.Fatalf("expected *FlowError, got %T: %v", err, err)
	}
	if fe.Stage != "init" {
		t.Errorf("nil program failed in stage %q, want init", fe.Stage)
	}

	// An empty image has no reset vector: whatever breaks inside the
	// flow (including panics) must surface as a staged *FlowError, never
	// as a panic escaping the public API.
	_, err = Tailor(context.Background(), &Program{}, nil, Options{})
	if err == nil {
		t.Fatal("tailoring an empty image succeeded")
	}
	fe = nil
	if !errors.As(err, &fe) {
		t.Fatalf("expected *FlowError, got %T: %v", err, err)
	}
	if fe.Stage == "" {
		t.Error("FlowError has no stage")
	}

	// A program image below ROM cannot be loaded: the update test fails
	// with an error whichever side it is on.
	low, err := Assemble(strings.Replace(tinyApp, ".org 0xF000", ".org 0x0200", 1))
	if err != nil {
		t.Fatal(err)
	}
	app, err := Assemble(tinyApp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SupportsUpdate(context.Background(), []*Program{app}, low, Options{}); err == nil {
		t.Error("an update below ROM was judged")
	}
	if _, err := SupportsUpdate(context.Background(), []*Program{low}, app, Options{}); err == nil {
		t.Error("an update against a base below ROM was judged")
	}
}
