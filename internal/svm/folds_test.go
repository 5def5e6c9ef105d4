package svm

import (
	"reflect"
	"testing"
)

// TestStratifiedFolds checks the fold assignment the cross-validated search
// in internal/train builds on: every fold carries its share of each class
// (within one), and a fixed seed reproduces the assignment exactly.
func TestStratifiedFolds(t *testing.T) {
	y := make([]int, 50)
	for i := range y {
		y[i] = -1
		if i%5 == 0 {
			y[i] = +1 // 10 positives, 40 negatives
		}
	}
	const k = 4
	fold := StratifiedFolds(y, k, 11)
	pos, neg := make([]int, k), make([]int, k)
	for i, f := range fold {
		if f < 0 || f >= k {
			t.Fatalf("row %d: fold %d outside [0,%d)", i, f, k)
		}
		if y[i] > 0 {
			pos[f]++
		} else {
			neg[f]++
		}
	}
	for f := 0; f < k; f++ {
		if pos[f] < 10/k || pos[f] > 10/k+1 || neg[f] != 40/k {
			t.Fatalf("fold %d holds %d/%d positives/negatives, want ~%d/%d", f, pos[f], neg[f], 10/k, 40/k)
		}
	}
	if again := StratifiedFolds(y, k, 11); !reflect.DeepEqual(again, fold) {
		t.Fatal("same seed gave a different assignment")
	}
}
