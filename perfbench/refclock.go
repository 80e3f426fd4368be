package main

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// The host's speed wanders: on the shared 2-vCPU guest NOTES.md was
// measured on, the same pass ran about 1.5 times slower for minutes at a
// time, in every program alike, while an integer or memory-read loop
// slowed by under 1.2 times. A loop of map inserts and lookups slows as
// the flow does, so a run times that loop beside its work and reports
// the work's time at a fixed reference speed. NOTES.md has the numbers.

const (
	// refKeys and refOps size the reference kernel: refOps map inserts
	// and as many lookups over refKeys keys, about 0.6 ms on that guest at
	// its fastest.
	refKeys = 6000
	refOps  = 20000
	// refNominal is the kernel's time at the reference speed. Calibrated
	// times are wall times scaled to the host running at that speed.
	refNominal = 600 * time.Microsecond
	// refEvery is the pause between two kernel runs; the kernel takes
	// about 1.5% of the one processor the benchmark uses.
	refEvery = 50 * time.Millisecond
	// refMinSamples is the fewest samples an interval is calibrated from;
	// a shorter interval borrows the samples nearest to it.
	refMinSamples = 5
	// refSampleCap bounds the samples of a run (runLimit / refEvery).
	refSampleCap = int(runLimit/refEvery) + 1
)

// refKernel is a fixed amount of map work. Its map is allocated once and
// never grows, so the kernel allocates nothing and leaves alloc_mb alone.
type refKernel struct {
	m    map[uint32]uint32
	sink uint32
}

func newRefKernel() *refKernel {
	return &refKernel{m: make(map[uint32]uint32, refKeys)}
}

func (k *refKernel) run() {
	clear(k.m)
	x := uint32(2463534242)
	for i := 0; i < refOps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.m[x%refKeys] += uint32(i)
		k.sink += k.m[(x>>7)%refKeys]
	}
}

// refSample is one timed run of the kernel.
type refSample struct {
	at  time.Time
	dur time.Duration
}

// refClock runs the kernel every refEvery on a goroutine of its own. With
// GOMAXPROCS=1 it shares the benchmark's one processor: the scheduler
// runs it between slices of the pass, never beside it.
type refClock struct {
	mu      sync.Mutex
	samples []refSample
	stop    chan struct{}
	done    chan struct{}
}

func startRefClock() *refClock {
	c := &refClock{
		samples: make([]refSample, 0, refSampleCap),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	k := newRefKernel()
	k.run() // fault the map in before the first timed run
	go func() {
		defer close(c.done)
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
			t0 := time.Now()
			k.run()
			d := time.Since(t0)
			c.mu.Lock()
			if len(c.samples) < cap(c.samples) {
				c.samples = append(c.samples, refSample{t0, d})
			}
			c.mu.Unlock()
		}
	}()
	return c
}

// halt stops the sampler and waits for it to end.
func (c *refClock) halt() {
	if c == nil {
		return
	}
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// calibrate returns the time the interval from..to would have taken at
// the reference speed: its wall time less the kernel runs inside it,
// scaled by the mean of refNominal/d over the kernel times d measured in
// it (a time-weighted mean of the host's speed, which is what stretches
// the interval). A short interval is scaled by the refMinSamples samples
// nearest to it. wall is the interval's time less the kernel runs.
func (c *refClock) calibrate(from, to time.Time) (cal, wall float64, err error) {
	c.mu.Lock()
	samples := append([]refSample(nil), c.samples...)
	c.mu.Unlock()
	if len(samples) < refMinSamples {
		return 0, 0, fmt.Errorf("reference clock: %d samples, need %d", len(samples), refMinSamples)
	}
	inside := time.Duration(0)
	var used []refSample
	for _, s := range samples {
		if !s.at.Before(from) && s.at.Add(s.dur).Before(to) {
			inside += s.dur
			used = append(used, s)
		}
	}
	if len(used) < refMinSamples {
		mid := from.Add(to.Sub(from) / 2)
		dist := func(s refSample) time.Duration {
			if d := s.at.Sub(mid); d >= 0 {
				return d
			}
			return mid.Sub(s.at)
		}
		slices.SortFunc(samples, func(a, b refSample) int { return int(dist(a) - dist(b)) })
		used = samples[:refMinSamples]
	}
	speeds := make([]float64, len(used))
	for i, s := range used {
		speeds[i] = float64(refNominal) / float64(s.dur)
	}
	wall = (to.Sub(from) - inside).Seconds()
	return wall * trimmedMean(speeds, 0.1), wall, nil
}

// speed is the host's median speed over the run so far, as a share of
// the reference speed.
func (c *refClock) speed() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	speeds := make([]float64, len(c.samples))
	for i, s := range c.samples {
		speeds[i] = float64(refNominal) / float64(s.dur)
	}
	return median(speeds)
}

// trimmedMean is the mean of xs without the lowest and highest share of
// them; a kernel run the scheduler cut into shows as one slow outlier.
func trimmedMean(xs []float64, share float64) float64 {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	k := int(share * float64(len(s)))
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
