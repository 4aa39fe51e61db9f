// Package fanout is the repository's one way to spread a stage's work
// across goroutines: core's peer shards and the cluster's channel workers
// both go through Run.
package fanout

import (
	"runtime"
	"sync"
)

// Run calls fn(k) for every k in [0, n) and returns when all calls have
// finished. The calls run on n goroutines only when that can pay: n > 1,
// the caller says the work is large enough (parallel), and the process
// has more than one scheduler core. Otherwise they run inline on the
// calling goroutine in index order, which allocates nothing.
//
// Callers must make fn(k) for different k touch disjoint state, so the
// two execution modes give identical results.
func Run(n int, parallel bool, fn func(k int)) {
	if n <= 1 || !parallel || runtime.GOMAXPROCS(0) == 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for k := 0; k < n; k++ {
		go func(k int) {
			defer wg.Done()
			fn(k)
		}(k)
	}
	wg.Wait()
}
