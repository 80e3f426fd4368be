package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSummarize reads `go test -bench` logs with and without -benchmem:
// ns/op is averaged over repetitions either way, and bytes_per_op is
// the mean B/op when the log has that column — after any ReportMetric
// columns — and absent from the JSON when it does not.
func TestSummarize(t *testing.T) {
	withMem := `goos: linux
BenchmarkInduct-2      	       1	4000000000 ns/op	       440.0 invariants	       309.0 queries	81357640 B/op	  598959 allocs/op
BenchmarkInduct-2      	       1	5000000000 ns/op	       440.0 invariants	       309.0 queries	81357680 B/op	  598959 allocs/op
BenchmarkProveClaims-2 	       1	 150000000 ns/op	         3.000 assumed	      1340 sat-queries	12787360 B/op	   91068 allocs/op
PASS
`
	withoutMem := `BenchmarkInduct      	       1	4000000000 ns/op	       440.0 invariants	       309.0 queries
BenchmarkInduct      	       1	5000000000 ns/op	       440.0 invariants	       309.0 queries
BenchmarkTailorFlow  	       1	 115000000 ns/op
`
	for _, tc := range []struct {
		name  string
		log   string
		want  map[string]entry
		bytes map[string]float64 // bytes_per_op per benchmark; absent = not recorded
	}{
		{"benchmem with metrics", withMem,
			map[string]entry{"BenchmarkInduct": {NsPerOp: 4.5e9, Count: 2}, "BenchmarkProveClaims": {NsPerOp: 1.5e8, Count: 1}},
			map[string]float64{"BenchmarkInduct": 81357660, "BenchmarkProveClaims": 12787360}},
		{"no benchmem", withoutMem,
			map[string]entry{"BenchmarkInduct": {NsPerOp: 4.5e9, Count: 2}, "BenchmarkTailorFlow": {NsPerOp: 1.15e8, Count: 1}},
			nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := summarize(strings.NewReader(tc.log))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("summarized %d benchmarks, want %d: %v", len(got), len(tc.want), got)
			}
			for name, w := range tc.want {
				g := got[name]
				if g.NsPerOp != w.NsPerOp || g.Count != w.Count {
					t.Errorf("%s: %v ns/op over %d, want %v over %d", name, g.NsPerOp, g.Count, w.NsPerOp, w.Count)
				}
				wb, ok := tc.bytes[name]
				switch {
				case !ok && g.BytesPerOp != nil:
					t.Errorf("%s: recorded %v B/op from a log without the column", name, *g.BytesPerOp)
				case ok && (g.BytesPerOp == nil || *g.BytesPerOp != wb):
					t.Errorf("%s: B/op %v, want %v", name, g.BytesPerOp, wb)
				}
			}
			js, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if has := strings.Contains(string(js), "bytes_per_op"); has != (tc.bytes != nil) {
				t.Errorf("JSON %s: bytes_per_op present %v, want %v", js, has, tc.bytes != nil)
			}
		})
	}
}

// TestDiffPrintsBytesButGatesTime: diff prints B/op beside ns/op, old
// and new where both summaries record it, and counts only ns/op
// regressions — doubled memory passes, a 20% slowdown fails.
func TestDiffPrintsBytesButGatesTime(t *testing.T) {
	b := func(v float64) *float64 { return &v }
	older := map[string]entry{
		"BenchmarkInduct":      {NsPerOp: 100, Count: 3, BytesPerOp: b(1000)},
		"BenchmarkProveClaims": {NsPerOp: 100, Count: 3},
		"BenchmarkTailorFlow":  {NsPerOp: 100, Count: 3},
	}
	newer := map[string]entry{
		"BenchmarkInduct":      {NsPerOp: 100, Count: 3, BytesPerOp: b(2000)},
		"BenchmarkProveClaims": {NsPerOp: 120, Count: 3, BytesPerOp: b(500)},
		"BenchmarkTailorFlow":  {NsPerOp: 100, Count: 3},
		"BenchmarkMiter":       {NsPerOp: 50, Count: 3, BytesPerOp: b(64)},
	}
	var out bytes.Buffer
	if n := diff(&out, "BENCH_1.json", older, newer, 1.10); n != 1 {
		t.Errorf("%d regressions, want 1 (ns/op only)\n%s", n, out.String())
	}
	for _, want := range []string{
		"1.000x  ok  1000 -> 2000 B/op\n",
		"1.200x  REGRESSION  500 B/op\n",
		"1.000x  ok\n",
		"(new benchmark)  64 B/op\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output lacks %q:\n%s", want, out.String())
		}
	}
}
