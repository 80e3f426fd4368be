package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// span is one call into a layer's public function, recorded from the
// benchmark's side of the boundary.
type span struct {
	Name     string `json:"name"`
	Parent   int    `json:"parent"` // index of the enclosing span, -1 for a root
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Run      int    `json:"run"`
	Workload string `json:"workload"`
	Program  string `json:"program,omitempty"`
	// AllocBytes is the heap allocated between the span's start and end,
	// children included.
	AllocBytes uint64 `json:"alloc_bytes"`

	// self names the per-layer metric the span's self time (its duration
	// minus its children's) is charged to; total optionally names a
	// metric that receives the whole duration.
	self, total string
	allocStart  uint64
}

// recorder keeps the spans and boundary counts of one traced run in
// memory; they are written out when the run ends. A nil *recorder is a
// valid untraced recorder: every method is a no-op, so the same pass code
// serves both modes.
type recorder struct {
	t0       time.Time
	workload string
	run      int
	program  string
	spans    []span
	open     []int
	counts   map[string]float64
}

func newRecorder(workload string, run int) *recorder {
	return &recorder{t0: time.Now(), workload: workload, run: run, counts: map[string]float64{}}
}

func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// begin opens a span whose self time is charged to the metric self.
func (r *recorder) begin(name, self string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{
		Name: name, Parent: parent, Run: r.run, Workload: r.workload, Program: r.program,
		self: self, allocStart: heapAllocated(),
	})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	r.spans[id].StartNs = int64(time.Since(r.t0))
	return id
}

// beginTotal is begin for a span whose full duration also counts toward
// the metric total.
func (r *recorder) beginTotal(name, self, total string) int {
	id := r.begin(name, self)
	if r != nil {
		r.spans[id].total = total
	}
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	s := &r.spans[id]
	s.EndNs = now
	s.AllocBytes = heapAllocated() - s.allocStart
	r.open = r.open[:len(r.open)-1]
}

// child records a span that the layer timed itself and that ends where
// its parent ends (faultinject's Report.Elapsed covers the tail of a
// campaign call).
func (r *recorder) child(parent int, name, self string, d time.Duration) {
	if r == nil {
		return
	}
	p := r.spans[parent]
	r.spans = append(r.spans, span{
		Name: name, Parent: parent, Run: r.run, Workload: r.workload, Program: p.Program,
		StartNs: p.EndNs - int64(d), EndNs: p.EndNs, self: self,
	})
}

// add accumulates a boundary count.
func (r *recorder) add(metric string, v float64) {
	if r != nil {
		r.counts[metric] += v
	}
}

// call runs f inside a span.
func call[T any](r *recorder, name, self string, f func() T) T {
	id := r.begin(name, self)
	v := f()
	r.end(id)
	return v
}

// callErr runs f inside a span.
func callErr[T any](r *recorder, name, self string, f func() (T, error)) (T, error) {
	id := r.begin(name, self)
	v, err := f()
	r.end(id)
	return v, err
}

// layerTimes charges every span's self time, and every span's full
// duration where it names a total metric, to its per-layer metrics, in
// seconds, and returns the summed root duration in nanoseconds. Self
// times add up to the root durations only if every child span lies
// inside its parent and siblings do not overlap; a span that breaks this
// is an error.
func (r *recorder) layerTimes() (times map[string]float64, rootNs int64, err error) {
	childNs := make([]int64, len(r.spans))
	lastEnd := make([]int64, len(r.spans)) // end of each span's latest child
	for i, s := range r.spans {
		lastEnd[i] = s.StartNs
		if s.Parent < 0 {
			continue
		}
		p := r.spans[s.Parent]
		if s.StartNs < lastEnd[s.Parent] || s.EndNs > p.EndNs || s.EndNs < s.StartNs {
			return nil, 0, fmt.Errorf("span %d (%s, %d-%d ns) escapes its parent %s (%d-%d ns) or overlaps a sibling",
				i, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
		lastEnd[s.Parent] = s.EndNs
		childNs[s.Parent] += s.EndNs - s.StartNs
	}
	times = map[string]float64{}
	for i, s := range r.spans {
		d := s.EndNs - s.StartNs
		times[s.self] += float64(d-childNs[i]) / 1e9
		if s.total != "" {
			times[s.total] += float64(d) / 1e9
		}
		if s.Parent < 0 {
			rootNs += d
		}
	}
	return times, rootNs, nil
}

// layerAllocs charges every span's self allocation (its bytes minus its
// children's) to the layer of its self metric, in MB.
func (r *recorder) layerAllocs() map[string]float64 {
	childBytes := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childBytes[s.Parent] += int64(s.AllocBytes)
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[layerOf(s.self)+".alloc_mb"] += float64(int64(s.AllocBytes)-childBytes[i]) / 1e6
	}
	return out
}

// layerOf is the package part of a metric name ("induct.spec_s" ->
// "induct").
func layerOf(metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	return layer
}

// writeSpans writes the recorders' spans to path as JSON lines.
func writeSpans(path string, recs ...*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
