// Package par holds the one worker-pool idiom shared by the parallel
// partitioning, the SDK's batch execution and the CSV load, so the
// clamping and channel plumbing live in exactly one place.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// started counts the worker goroutines For has started.
var started atomic.Uint64

// Started returns how many worker goroutines For has started in this
// process; a test reads it around a call to check that the call's
// one-worker path started none.
func Started() uint64 { return started.Load() }

// For runs fn(0), …, fn(n−1) on at most workers goroutines and returns
// when all calls have finished. workers ≤ 0 means runtime.GOMAXPROCS(0);
// a single worker (or n ≤ 1) runs inline in index order. fn must write
// results to per-index slots; For imposes no other ordering.
func For(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	started.Add(uint64(workers))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
