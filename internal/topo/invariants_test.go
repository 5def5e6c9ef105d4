package topo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hotspot/internal/geom"
)

// TestQuickKeyTranslationInvariant: the canonical key is window-relative, so
// translating the pattern together with its window must not change it.
func TestQuickKeyTranslationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rects, window := randomPattern(rng)
		key := CanonicalKey(rects, window)
		dx := geom.Coord(rng.Intn(2000) - 1000)
		dy := geom.Coord(rng.Intn(2000) - 1000)
		moved := make([]geom.Rect, len(rects))
		for i, r := range rects {
			moved[i] = r.Translate(dx, dy)
		}
		return CanonicalKey(moved, window.Translate(dx, dy)) == key
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDensityTranslationInvariant mirrors the same property for the
// canonical density grid.
func TestQuickDensityTranslationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rects, window := randomPattern(rng)
		d := CanonicalDensity(rects, window, 12)
		dx := geom.Coord(rng.Intn(500) - 250)
		dy := geom.Coord(rng.Intn(500) - 250)
		moved := make([]geom.Rect, len(rects))
		for i, r := range rects {
			moved[i] = r.Translate(dx, dy)
		}
		d2 := CanonicalDensity(moved, window.Translate(dx, dy), 12)
		return l1(d, d2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCompositeLengths: the composite strings contain every side plus
// the repeated beginning side.
func TestQuickCompositeLengths(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rects, window := randomPattern(rng)
		s := ComputeStrings(rects, window)
		perim := len(s.Bottom) + len(s.Right) + len(s.Top) + len(s.Left)
		return len(s.CompositeCCW()) == perim+len(s.Bottom) &&
			len(s.CompositeCW()) == perim+len(s.Bottom)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOppositeSidesSameLength: the bottom/top (and left/right) strings
// slice the same slabs, so their lengths agree.
func TestQuickOppositeSidesSameLength(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rects, window := randomPattern(rng)
		s := ComputeStrings(rects, window)
		return len(s.Bottom) == len(s.Top) && len(s.Left) == len(s.Right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMergeClustersPreservesMembership: merging never loses or
// duplicates a member.
func TestQuickMergeClustersPreservesMembership(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var samples []Sample
		n := 8 + rng.Intn(12)
		for i := 0; i < n; i++ {
			rects, window := randomPattern(rng)
			samples = append(samples, Sample{Rects: rects, Region: window})
		}
		clusters, grids := ClassifyParallel(samples, DefaultOptions, nil, 1)
		merged := MergeClusters(clusters, grids, 3)
		if len(merged) > 3 && len(clusters) > 3 {
			return false
		}
		seen := map[int]int{}
		for _, c := range merged {
			for _, m := range c.Members {
				seen[m]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		// Every representative is a member of its own cluster.
		for _, c := range merged {
			ok := false
			for _, m := range c.Members {
				if m == c.Representative {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestLiteralMatchingEquivalentToCanonical: the paper-literal Theorem-1
// grouping and the canonical-key bucketing partition patterns identically.
func TestLiteralMatchingEquivalentToCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var samples []Sample
	for i := 0; i < 20; i++ {
		rects, window := randomPattern(rng)
		if i%4 == 0 && i > 0 {
			// Reuse an earlier pattern under a random orientation so that
			// nontrivial groups exist.
			o := geom.AllOrientations[rng.Intn(8)]
			rects = o.ApplyToRects(samples[i-1].Rects, 120)
		}
		samples = append(samples, Sample{Rects: rects, Region: window})
	}
	canonical := Classify(samples, DefaultOptions)
	literalOpts := DefaultOptions
	literalOpts.LiteralMatching = true
	literal := Classify(samples, literalOpts)

	part := func(cs []Cluster) map[int]string {
		out := map[int]string{}
		for _, c := range cs {
			for _, m := range c.Members {
				out[m] = c.Key
			}
		}
		return out
	}
	pc, pl := part(canonical), part(literal)
	if len(pc) != len(pl) {
		t.Fatalf("partition sizes differ: %d vs %d", len(pc), len(pl))
	}
	// Same-group relations must agree pairwise.
	for i := 0; i < len(samples); i++ {
		for j := i + 1; j < len(samples); j++ {
			if (pc[i] == pc[j]) != (pl[i] == pl[j]) {
				t.Fatalf("patterns %d,%d grouped differently (canonical %v, literal %v)",
					i, j, pc[i] == pc[j], pl[i] == pl[j])
			}
		}
	}
}
