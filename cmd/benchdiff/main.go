// Command benchdiff guards kernel performance across PRs. It has two
// modes:
//
//	benchdiff -summarize bench.txt          # go test -bench text -> JSON
//	benchdiff [-threshold 1.10] old.json new.json
//	benchdiff [-threshold 1.10] -baseline-glob 'BENCH_*.json' new.json
//
// The JSON shape is the committed BENCH_<n>.json trajectory:
//
//	{"BenchmarkName": {"ns_per_op": 123, "count": 3, "bytes_per_op": 4096}}
//
// bytes_per_op, the mean B/op, is there only when the log has a B/op
// column (go test -benchmem).
//
// In diff mode the exit status is 1 when any benchmark present in both
// files slowed down by more than the threshold ratio (default 1.10, a
// 10% regression); benchmarks that appear or disappear are reported but
// do not fail the diff, so the suite can grow. B/op is printed beside
// ns/op but never gated. With -baseline-glob the baseline is the
// highest-numbered matching file, so committing BENCH_7.json later
// retargets the gate without a CI edit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

type entry struct {
	NsPerOp    float64  `json:"ns_per_op"`
	Count      int      `json:"count"`
	BytesPerOp *float64 `json:"bytes_per_op,omitempty"`
}

func main() {
	summarize := flag.Bool("summarize", false, "parse go test -bench output and emit the JSON summary")
	threshold := flag.Float64("threshold", 1.10, "new/old ns-per-op ratio above which a benchmark fails")
	baselineGlob := flag.String("baseline-glob", "", "pick the highest-numbered file matching this glob as the baseline")
	flag.Parse()

	if *summarize {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-summarize wants exactly one bench.txt argument"))
		}
		if err := doSummarize(flag.Arg(0), os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	var oldPath, newPath string
	switch {
	case *baselineGlob != "" && flag.NArg() == 1:
		p, err := newestBaseline(*baselineGlob)
		if err != nil {
			fatal(err)
		}
		if p == "" {
			fmt.Printf("benchdiff: no baseline matches %q yet; nothing to compare\n", *baselineGlob)
			return
		}
		oldPath, newPath = p, flag.Arg(0)
	case *baselineGlob == "" && flag.NArg() == 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		fatal(fmt.Errorf("want old.json new.json, or -baseline-glob with new.json"))
	}

	older, err := load(oldPath)
	if err != nil {
		fatal(err)
	}
	newer, err := load(newPath)
	if err != nil {
		fatal(err)
	}
	if regressions := diff(os.Stdout, oldPath, older, newer, *threshold); regressions > 0 {
		os.Exit(1)
	}
}

// doSummarize summarizes the `go test -bench` text log at path and
// writes the JSON summary.
func doSummarize(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	out, err := summarize(f)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)
	bytesField = regexp.MustCompile(`\s([0-9.]+) B/op`)
)

// summarize averages each benchmark's ns/op, and its B/op where the log
// has that column, over its repetitions in a `go test -bench` text log.
func summarize(r io.Reader) (map[string]entry, error) {
	type sums struct {
		ns, bytes   float64
		n, bytesRep int
	}
	sum := map[string]*sums{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		e := sum[m[1]]
		if e == nil {
			e = &sums{}
			sum[m[1]] = e
		}
		e.ns += ns
		e.n++
		if b := bytesField.FindStringSubmatch(sc.Text()[len(m[0]):]); b != nil {
			if v, err := strconv.ParseFloat(b[1], 64); err == nil {
				e.bytes += v
				e.bytesRep++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]entry, len(sum))
	for name, e := range sum {
		en := entry{NsPerOp: e.ns / float64(e.n), Count: e.n}
		if e.bytesRep > 0 {
			b := e.bytes / float64(e.bytesRep)
			en.BytesPerOp = &b
		}
		out[name] = en
	}
	return out, nil
}

// newestBaseline returns the matching file with the highest embedded
// number ("" when none match).
func newestBaseline(glob string) (string, error) {
	matches, err := filepath.Glob(glob)
	if err != nil {
		return "", err
	}
	num := regexp.MustCompile(`(\d+)`)
	best, bestN := "", -1
	for _, m := range matches {
		n := 0
		if d := num.FindString(filepath.Base(m)); d != "" {
			n, _ = strconv.Atoi(d)
		}
		if n > bestN {
			best, bestN = m, n
		}
	}
	return best, nil
}

func load(path string) (map[string]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out map[string]entry
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// memCol formats the B/op beside one diff row's ns/op: "old -> new"
// when both summaries record it, the new value alone when only the new
// one does, and nothing otherwise.
func memCol(o, n *float64) string {
	switch {
	case n == nil:
		return ""
	case o == nil:
		return fmt.Sprintf("  %.0f B/op", *n)
	}
	return fmt.Sprintf("  %.0f -> %.0f B/op", *o, *n)
}

// diff prints a comparison table and returns the number of regressions
// beyond the threshold. B/op is printed where a summary has it, never
// gated.
func diff(w io.Writer, oldPath string, older, newer map[string]entry, threshold float64) int {
	names := make([]string, 0, len(newer))
	for name := range newer {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(w, "benchdiff: baseline %s, fail ratio %.2f\n", oldPath, threshold)
	for _, name := range names {
		n := newer[name]
		o, ok := older[name]
		if !ok || o.NsPerOp <= 0 {
			fmt.Fprintf(w, "  %-40s %12.0f ns/op  (new benchmark)%s\n", name, n.NsPerOp, memCol(nil, n.BytesPerOp))
			continue
		}
		ratio := n.NsPerOp / o.NsPerOp
		verdict := "ok"
		if ratio > threshold {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "  %-40s %12.0f -> %12.0f ns/op  %.3fx  %s%s\n",
			name, o.NsPerOp, n.NsPerOp, ratio, verdict, memCol(o.BytesPerOp, n.BytesPerOp))
	}
	for name := range older {
		if _, ok := newer[name]; !ok {
			fmt.Fprintf(w, "  %-40s (removed)\n", name)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "benchdiff: %d benchmark(s) slowed down more than %.0f%%\n", regressions, (threshold-1)*100)
	} else {
		fmt.Fprintln(w, "benchdiff: no regressions")
	}
	return regressions
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
