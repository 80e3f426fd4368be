package bench

import (
	"context"
	"testing"

	"bespoke/internal/core"
	"bespoke/internal/symexec"
)

func TestAllAssemble(t *testing.T) {
	suite := append(All(), ScrambledIntFilt(), Subneg())
	if len(suite) != 17 {
		t.Fatalf("suite size %d", len(suite))
	}
	for _, b := range suite {
		if _, err := b.Prog(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestISARunsAndEmits(t *testing.T) {
	for _, b := range append(All(), ScrambledIntFilt(), Subneg()) {
		for seed := uint64(1); seed <= 2; seed++ {
			m, err := b.RunISA(seed)
			if err != nil {
				t.Errorf("%s seed %d: %v", b.Name, seed, err)
				continue
			}
			if len(m.Out) == 0 {
				t.Errorf("%s seed %d: no output", b.Name, seed)
			}
			if !m.Halted {
				t.Errorf("%s seed %d: not halted", b.Name, seed)
			}
		}
	}
}

func TestDivReference(t *testing.T) {
	b := Div()
	for seed := uint64(1); seed <= 20; seed++ {
		m, err := b.RunISA(seed)
		if err != nil {
			t.Fatal(err)
		}
		w := b.Workload(seed)
		dividend := w.RAM[InBuf]
		divisor := w.RAM[InBuf+2]
		if len(m.Out) != 2 {
			t.Fatalf("out = %v", m.Out)
		}
		if m.Out[0] != dividend/divisor || m.Out[1] != dividend%divisor {
			t.Fatalf("seed %d: %d/%d -> q=%d r=%d, want q=%d r=%d",
				seed, dividend, divisor, m.Out[0], m.Out[1], dividend/divisor, dividend%divisor)
		}
	}
}

func TestBinSearchReference(t *testing.T) {
	tab := []uint16{2, 5, 9, 14, 22, 31, 40, 53, 64, 77, 90, 105, 121, 150, 200, 250}
	b := BinSearch()
	for seed := uint64(1); seed <= 20; seed++ {
		m, err := b.RunISA(seed)
		if err != nil {
			t.Fatal(err)
		}
		key := b.Workload(seed).RAM[InBuf]
		wantIdx, found := -1, false
		for i, v := range tab {
			if v == key {
				wantIdx, found = i, true
			}
		}
		if found {
			if m.Out[1] != 1 || int(m.Out[0]) != wantIdx {
				t.Fatalf("seed %d key %d: out %v, want idx %d", seed, key, m.Out, wantIdx)
			}
		} else if m.Out[1] != 0 {
			t.Fatalf("seed %d key %d: false hit %v", seed, key, m.Out)
		}
	}
}

func TestInSortReference(t *testing.T) {
	b := InSort()
	for seed := uint64(1); seed <= 10; seed++ {
		m, err := b.RunISA(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Out) != 9 {
			t.Fatalf("out = %v", m.Out)
		}
		var sum uint16
		for i := 0; i < 8; i++ {
			sum += m.Out[i]
			if i > 0 && m.Out[i-1] > m.Out[i] {
				t.Fatalf("seed %d: not sorted: %v", seed, m.Out[:8])
			}
		}
		if sum != m.Out[8] {
			t.Fatalf("checksum mismatch")
		}
	}
}

func TestIntAVGReference(t *testing.T) {
	b := IntAVG()
	for seed := uint64(1); seed <= 10; seed++ {
		m, err := b.RunISA(seed)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint32
		w := b.Workload(seed)
		for i := 0; i < 16; i++ {
			sum += uint32(w.RAM[InBuf+uint16(2*i)])
		}
		if m.Out[0] != uint16(sum/16) {
			t.Fatalf("seed %d: avg %d, want %d", seed, m.Out[0], sum/16)
		}
	}
}

func TestConvEnReference(t *testing.T) {
	b := ConvEn()
	m, err := b.RunISA(3)
	if err != nil {
		t.Fatal(err)
	}
	data := b.Workload(3).RAM[InBuf]
	state := 0
	for i := 15; i >= 0; i-- {
		bit := int(data>>uint(i)) & 1
		s0, s1 := state&1, state>>1&1
		g0 := bit ^ s1 ^ s0
		g1 := bit ^ s0
		want := uint16(g0<<1 | g1)
		if m.Out[15-i] != want {
			t.Fatalf("bit %d: out %d, want %d", 15-i, m.Out[15-i], want)
		}
		state = (bit<<1 | s1) & 3
	}
}

func TestIRQHandlersRun(t *testing.T) {
	m, err := IRQ().RunISA(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Out) != 2 || m.Out[0] != 3 || m.Out[1] != 7 {
		t.Fatalf("out = %v, want [3 7]", m.Out)
	}
}

func TestDbgCounters(t *testing.T) {
	m, err := Dbg().RunISA(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Out) != 3 || m.Out[0] != 5 {
		t.Fatalf("out = %v, want 5 breakpoint hits first", m.Out)
	}
	if m.Out[2] != 0x1111+0x2222+0x3333+0x4444 {
		t.Fatalf("scratch sum = %#x", m.Out[2])
	}
}

func TestSubnegComputes(t *testing.T) {
	b := Subneg()
	m, err := b.RunISA(5)
	if err != nil {
		t.Fatal(err)
	}
	w := b.Workload(5)
	v1 := w.RAM[SubnegBase+0x40]
	v2 := w.RAM[SubnegBase+0x42]
	if len(m.Out) != 2 || m.Out[0] != uint16(-int16(v1)) || m.Out[1] != uint16(-int16(v2)) {
		t.Fatalf("out = %v, want negated %d %d", m.Out, v1, v2)
	}
}

// TestGateLevelMatchesISA runs every benchmark's workload on the real
// gate-level core and requires identical observable output.
func TestGateLevelMatchesISA(t *testing.T) {
	for _, b := range append(All(), ScrambledIntFilt(), Subneg()) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m, err := b.RunISA(1)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := b.RunGate(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Out) != len(m.Out) {
				t.Fatalf("gate out %v, isa out %v", tr.Out, m.Out)
			}
			for i := range tr.Out {
				if tr.Out[i] != m.Out[i] {
					t.Fatalf("out[%d]: gate %#x, isa %#x", i, tr.Out[i], m.Out[i])
				}
			}
		})
	}
}

// TestSymbolicAnalysisAllBenchmarks is the suite-wide Algorithm 1 run:
// every benchmark's analysis must terminate and leave a plausible
// fraction of the processor untoggleable (the paper's Figure 10 reports
// 43-70% untoggleable across the suite).
func TestSymbolicAnalysisAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("symbolic analysis of the full suite")
	}
	for _, b := range append(All(), ScrambledIntFilt(), Subneg()) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, c, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			un := res.UntoggledCount(c.N)
			frac := float64(un) / float64(c.N.CellCount())
			t.Logf("%s: untoggled %.1f%%, paths %d, merges %d, cycles %d",
				b.Name, 100*frac, res.Paths, res.Merges, res.Cycles)
			lo := 0.20
			if b.Name == "subneg" {
				// The Turing-complete interpreter must keep almost the
				// whole processor: its unknown program may touch
				// anything (Section 5.3).
				lo = 0.02
			}
			if frac < lo || frac > 0.90 {
				t.Errorf("untoggled fraction %.2f outside plausible band", frac)
			}
		})
	}
}

// TestExtras validates the beyond-the-paper kernels: reference results
// on the golden model, gate-level agreement, and clean symbolic analysis.
func TestExtras(t *testing.T) {
	for _, b := range Extras() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m, err := b.RunISA(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Out) == 0 {
				t.Fatal("no output")
			}
			tr, err := b.RunGate(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Out) != len(m.Out) {
				t.Fatalf("gate %v vs isa %v", tr.Out, m.Out)
			}
			for i := range tr.Out {
				if tr.Out[i] != m.Out[i] {
					t.Fatalf("out[%d]: gate %#x isa %#x", i, tr.Out[i], m.Out[i])
				}
			}
			res, c, err := core.Analyze(context.Background(), b.MustProg(), symexec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			frac := float64(res.UntoggledCount(c.N)) / float64(c.N.CellCount())
			t.Logf("%s: untoggled %.1f%%", b.Name, 100*frac)
			if frac < 0.2 || frac > 0.9 {
				t.Errorf("untoggled %.2f out of band", frac)
			}
		})
	}
}

// TestCRC16Reference checks against a software CRC-16/CCITT.
func TestCRC16Reference(t *testing.T) {
	b := CRC16()
	for seed := uint64(1); seed <= 5; seed++ {
		m, err := b.RunISA(seed)
		if err != nil {
			t.Fatal(err)
		}
		w := b.Workload(seed)
		crc := uint16(0xFFFF)
		for i := 0; i < 8; i++ {
			byteVal := w.RAM[InBuf+uint16(2*(i/2))]
			var db uint8
			if i%2 == 0 {
				db = uint8(byteVal)
			} else {
				db = uint8(byteVal >> 8)
			}
			crc ^= uint16(db) << 8
			for k := 0; k < 8; k++ {
				if crc&0x8000 != 0 {
					crc = crc<<1 ^ 0x1021
				} else {
					crc <<= 1
				}
			}
		}
		if m.Out[0] != crc {
			t.Fatalf("seed %d: crc %#04x, want %#04x", seed, m.Out[0], crc)
		}
	}
}

// TestMatMulReference checks against a software matrix multiply.
func TestMatMulReference(t *testing.T) {
	b := MatMul()
	m, err := b.RunISA(2)
	if err != nil {
		t.Fatal(err)
	}
	w := b.Workload(2)
	var a, bb [3][3]uint16
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a[i][j] = w.RAM[InBuf+uint16(2*(3*i+j))]
			bb[i][j] = w.RAM[InBuf+18+uint16(2*(3*i+j))]
		}
	}
	if len(m.Out) != 9 {
		t.Fatalf("out = %v", m.Out)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var want uint16
			for k := 0; k < 3; k++ {
				want += a[i][k] * bb[k][j]
			}
			if m.Out[3*i+j] != want {
				t.Fatalf("c[%d][%d] = %d, want %d", i, j, m.Out[3*i+j], want)
			}
		}
	}
}
