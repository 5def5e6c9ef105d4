// Package par runs independent loop iterations across goroutines.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs f(0..n-1) across up to workers goroutines. With one worker it
// degrades to a plain loop. Iterations are handed out in no fixed order,
// so callers that need a deterministic result have f write only slot i of
// a result indexed like the input.
func For(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
