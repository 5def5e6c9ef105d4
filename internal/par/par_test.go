package par

import (
	"sync/atomic"
	"testing"
)

// TestForVisitsEachIndexOnce checks every index runs exactly once, serially
// and with more workers than iterations.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 50
		var hits [n]atomic.Int32
		For(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}
