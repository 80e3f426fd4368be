// Package parallel is the flow's shared fan-out helper: a fixed worker
// pool distributing the indices [0, n), with context cancellation and
// deterministic error selection.
//
// Per-index results land in pre-sized slices and are aggregated
// sequentially by the caller after the pool drains. That post-drain
// sequential aggregation is what keeps parallel campaigns deterministic:
// workers never merge.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs f(i) for every i in [0, n) on a pool of workers goroutines
// (GOMAXPROCS when workers <= 0). It returns the error of the
// lowest-indexed failing call, or the context error if the context was
// cancelled first; on any failure or cancellation remaining indices are
// abandoned. f must be safe for concurrent invocation on distinct
// indices; writes to results[i] made by f are visible to the caller once
// ForEach returns.
func ForEach(ctx context.Context, workers, n int, f func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		errIdx   int
	)
	next.Store(-1)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
