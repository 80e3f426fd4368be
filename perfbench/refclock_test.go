package main

import (
	"math"
	"testing"
	"time"
)

// clockAt builds a reference clock from canned samples: one every 50 ms
// from t0, each taking the given kernel time.
func clockAt(t0 time.Time, durs ...time.Duration) *refClock {
	c := &refClock{}
	for i, d := range durs {
		c.samples = append(c.samples, refSample{at: t0.Add(time.Duration(i) * refEvery), dur: d})
	}
	return c
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// An interval the host ran at half the reference speed is reported at
// half its wall time, after the kernel runs inside it are taken out.
func TestCalibrateScalesBySpeed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	slow := 2 * refNominal
	c := clockAt(t0, slow, slow, slow, slow, slow, slow, slow, slow, slow, slow)
	from, to := t0.Add(-time.Millisecond), t0.Add(10*refEvery)
	cal, wall, err := c.calibrate(from, to)
	if err != nil {
		t.Fatal(err)
	}
	wantWall := (to.Sub(from) - 10*slow).Seconds()
	if !near(wall, wantWall) || !near(cal, wantWall/2) {
		t.Fatalf("calibrate = %v, %v; want %v, %v", cal, wall, wantWall/2, wantWall)
	}
}

// The scale is a mean of speeds, not of kernel times: half the interval
// at full speed and half at half speed runs at three quarters of it.
func TestCalibrateAveragesSpeeds(t *testing.T) {
	t0 := time.Unix(1000, 0)
	f, s := refNominal, 2*refNominal
	c := clockAt(t0, f, f, f, f, f, s, s, s, s, s)
	cal, wall, err := c.calibrate(t0, t0.Add(10*refEvery))
	if err != nil {
		t.Fatal(err)
	}
	if !near(cal, wall*0.75) {
		t.Fatalf("calibrated %v of wall %v, want %v", cal, wall, wall*0.75)
	}
}

// An interval shorter than refMinSamples kernel periods borrows the
// samples nearest to it and subtracts nothing it did not contain.
func TestCalibrateShortIntervalBorrows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	f, s := refNominal, 4*refNominal
	c := clockAt(t0, s, s, s, f, f, f, f, f, s, s, s)
	from := t0.Add(5*refEvery + time.Millisecond)
	to := from.Add(10 * time.Millisecond)
	cal, wall, err := c.calibrate(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !near(wall, 0.010) || !near(cal, 0.010) {
		t.Fatalf("calibrate = %v, %v; want 0.01, 0.01", cal, wall)
	}
	if _, _, err := clockAt(t0, f, f).calibrate(from, to); err == nil {
		t.Fatal("a clock with too few samples calibrated an interval")
	}
}

// The kernel allocates nothing, so it cannot leak into alloc_mb.
func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	k.run()
	if a := testing.AllocsPerRun(10, k.run); a != 0 {
		t.Fatalf("reference kernel allocates %v times a run", a)
	}
}
