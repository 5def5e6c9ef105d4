package topo

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hotspot/internal/geom"
)

// l1 returns the plain L1 distance between two equally sized grids: the
// reference the table-driven distance must reproduce bit for bit.
func l1(a, b Density) float64 {
	var sum float64
	for i := range a.D {
		sum += math.Abs(a.D[i] - b.D[i])
	}
	return sum
}

// randomGrid returns an n x n grid of coverage-like values, some of them
// exact 0 or 1 as pixelation produces.
func randomGrid(rng *rand.Rand, n int) Density {
	d := Density{N: n, D: make([]float64, n*n)}
	for i := range d.D {
		switch rng.Intn(4) {
		case 0:
		case 1:
			d.D[i] = 1
		default:
			d.D[i] = rng.Float64()
		}
	}
	return d
}

// orientCompositionAlign is the reference alignment: materialize every
// orientation of b with Orient and keep the first strict L1 minimum.
func orientCompositionAlign(a, b Density) (Density, float64) {
	best := math.Inf(1)
	var bestD Density
	for _, o := range geom.AllOrientations {
		ob := b.Orient(o)
		if v := l1(a, ob); v < best {
			best, bestD = v, ob
		}
	}
	return bestD, best
}

// TestDistMatchesOrientComposition checks the table-driven Dist and
// nearestOrientation bit for bit against the l1(a, b.Orient(o))
// composition they replace, across grid sizes (odd, even, degenerate) and
// symmetric inputs where several orientations tie.
func TestDistMatchesOrientComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 5, 12, 16} {
		for trial := 0; trial < 25; trial++ {
			a, b := randomGrid(rng, n), randomGrid(rng, n)
			if trial%5 == 0 {
				b = a.Orient(geom.AllOrientations[trial%8])
			}
			wantD, want := orientCompositionAlign(a, b)
			if got := Dist(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d trial %d: Dist %v, want %v", n, trial, got, want)
			}
			src, got := nearestOrientation(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d trial %d: nearestOrientation distance %v, want %v", n, trial, got, want)
			}
			gotD := Density{N: n, D: make([]float64, n*n)}
			for i, j := range src {
				gotD.D[i] = b.D[j]
			}
			if !reflect.DeepEqual(gotD, wantD) {
				t.Fatalf("n=%d trial %d: aligned grid differs from the composition's", n, trial)
			}
		}
	}
	if d := Dist(randomGrid(rng, 3), randomGrid(rng, 4)); !math.IsInf(d, 1) {
		t.Fatalf("mismatched sizes: Dist %v, want +Inf", d)
	}
}

// TestDistZeroAlloc pins the allocation-free distance: once a grid size's
// orientation tables exist, Dist allocates nothing.
func TestDistZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := randomGrid(rng, 12), randomGrid(rng, 12)
	Dist(a, b)
	if allocs := testing.AllocsPerRun(100, func() { Dist(a, b) }); allocs != 0 {
		t.Fatalf("Dist: %v allocs/op, want 0", allocs)
	}
}

// TestClassifyParallelMatchesSerial checks that spreading canonicalization
// over workers changes nothing: the clusters equal Classify's at every
// worker count, and the returned grids are the samples' canonical grids.
func TestClassifyParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var samples []Sample
	for i := 0; i < 60; i++ {
		rects, window := randomPattern(rng)
		samples = append(samples, Sample{Rects: rects, Region: window})
		if i%3 == 0 {
			// Repeat topologies so buckets hold several members.
			samples = append(samples, Sample{Rects: rects, Region: window})
		}
	}
	want := Classify(samples, DefaultOptions)
	for _, w := range []int{1, 2, 8} {
		got, grids := ClassifyParallel(samples, DefaultOptions, nil, w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: clusters differ from Classify", w)
		}
		for i, s := range samples {
			if !reflect.DeepEqual(grids[i], CanonicalDensity(s.Rects, s.Region, DefaultOptions.DensityGrid)) {
				t.Fatalf("workers=%d: grid %d is not the canonical density", w, i)
			}
		}
	}
}
