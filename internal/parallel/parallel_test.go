package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	const n = 1000
	hit := make([]atomic.Int32, n)
	err := ForEach(context.Background(), 8, n, func(i int) error {
		hit[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hit {
		if got := hit[i].Load(); got != 1 {
			t.Fatalf("index %d executed %d times, want exactly once", i, got)
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	var low atomic.Int32
	low.Store(1 << 30)
	err := ForEach(context.Background(), 4, 100, func(i int) error {
		if i%10 == 3 { // 3, 13, 23, ...
			for {
				cur := low.Load()
				if int32(i) >= cur || low.CompareAndSwap(cur, int32(i)) {
					break
				}
			}
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestForEachMidCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	err := ForEach(ctx, 4, 10_000, func(i int) error {
		if done.Add(1) == 50 {
			cancel()
		}
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := done.Load(); n >= 10_000 {
		t.Fatalf("cancellation did not abandon work: %d jobs ran", n)
	}
}

func TestForEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEach(ctx, 4, 100, func(i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_ = ran // a worker may have claimed an index before observing ctx; either way the error reports cancellation
}

func TestForEachZeroJobs(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) error {
		t.Fatal("f called with n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
