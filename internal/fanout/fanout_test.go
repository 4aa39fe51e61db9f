package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every index runs exactly once, in both execution modes, and Run returns
// only after all of them finished.
func TestRunCallsEveryIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, parallel := range []bool{false, true} {
		for _, n := range []int{0, 1, 5} {
			calls := make([]int32, n)
			Run(n, parallel, func(k int) { atomic.AddInt32(&calls[k], 1) })
			for k, c := range calls {
				if c != 1 {
					t.Fatalf("parallel=%v n=%d: index %d ran %d times", parallel, n, k, c)
				}
			}
		}
	}
}

// The inline path runs the indices in order on the calling goroutine,
// whichever condition sends it there, and allocates nothing.
func TestRunInlineInOrderWithoutAllocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var order []int
	record := func(k int) { order = append(order, k) }
	for _, tc := range []struct {
		name     string
		procs    int
		parallel bool
	}{
		{"not parallel", 2, false},
		{"one core", 1, true},
	} {
		runtime.GOMAXPROCS(tc.procs)
		order = order[:0]
		Run(4, tc.parallel, record)
		if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 3 {
			t.Fatalf("%s: inline order %v, want [0 1 2 3]", tc.name, order)
		}
		sum := 0
		add := func(k int) { sum += k }
		if allocs := testing.AllocsPerRun(100, func() { Run(4, tc.parallel, add) }); allocs != 0 {
			t.Fatalf("%s: inline Run allocates %g objects, want 0", tc.name, allocs)
		}
	}
}
