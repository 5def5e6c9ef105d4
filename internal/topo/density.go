package topo

import (
	"math"
	"sync"

	"hotspot/internal/geom"
	"hotspot/internal/simd"
)

// Density is the pixel polygon-density vector of a core pattern: an N x N
// grid of coverage fractions in row-major order, y growing upward.
type Density struct {
	N int
	D []float64
}

// ComputeDensity pixelates the geometry within window into an n x n grid of
// exact coverage fractions.
func ComputeDensity(rects []geom.Rect, window geom.Rect, n int) Density {
	var d Density
	ComputeDensityInto(&d, rects, window, n)
	return d
}

// ComputeDensityInto is ComputeDensity writing into d, reusing d.D when it
// has the capacity, so steady-state callers (the per-clip evaluation loop)
// pixelate without allocating. The resulting grid is identical to
// ComputeDensity's for any input; d must not be aliased by another live
// Density.
func ComputeDensityInto(d *Density, rects []geom.Rect, window geom.Rect, n int) {
	if n < 1 {
		n = 1
	}
	d.N = n
	if cap(d.D) < n*n {
		d.D = make([]float64, n*n)
	} else {
		d.D = d.D[:n*n]
		for i := range d.D {
			d.D[i] = 0
		}
	}
	if window.Empty() {
		return
	}
	pw := float64(window.W()) / float64(n)
	ph := float64(window.H()) / float64(n)
	for _, r := range rects {
		c := r.Intersect(window)
		if c.Empty() {
			continue
		}
		fx0 := float64(c.X0-window.X0) / pw
		fx1 := float64(c.X1-window.X0) / pw
		fy0 := float64(c.Y0-window.Y0) / ph
		fy1 := float64(c.Y1-window.Y0) / ph
		x0, x1 := int(math.Floor(fx0)), int(math.Ceil(fx1))
		y0, y1 := int(math.Floor(fy0)), int(math.Ceil(fy1))
		for y := y0; y < y1 && y < n; y++ {
			if y < 0 {
				continue
			}
			cy := overlap1(float64(y), float64(y+1), fy0, fy1)
			for x := x0; x < x1 && x < n; x++ {
				if x < 0 {
					continue
				}
				cx := overlap1(float64(x), float64(x+1), fx0, fx1)
				v := d.D[y*n+x] + cx*cy
				if v > 1 {
					v = 1
				}
				d.D[y*n+x] = v
			}
		}
	}
}

func overlap1(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Orient returns the density grid transformed by o.
func (d Density) Orient(o geom.Orientation) Density {
	out := Density{N: d.N, D: make([]float64, len(d.D))}
	s := geom.Coord(d.N - 1)
	for y := 0; y < d.N; y++ {
		for x := 0; x < d.N; x++ {
			p := o.ApplyToPoint(geom.Pt(geom.Coord(x), geom.Coord(y)), s)
			out.D[int(p.Y)*d.N+int(p.X)] = d.D[y*d.N+x]
		}
	}
	return out
}

// orientTables maps a grid size n to its orientation tables: one
// source-index table per entry of geom.AllOrientations, with
// b.Orient(o).D[i] == b.D[t[o][i]]. Reading b through a table replaces an
// oriented copy of b per orientation.
var orientTables sync.Map // int -> *[geom.NumOrientations][]int32

// tablesFor returns the orientation tables of n x n grids, building them on
// first use.
func tablesFor(n int) *[geom.NumOrientations][]int32 {
	if t, ok := orientTables.Load(n); ok {
		return t.(*[geom.NumOrientations][]int32)
	}
	t := new([geom.NumOrientations][]int32)
	s := geom.Coord(n - 1)
	for oi, o := range geom.AllOrientations {
		src := make([]int32, n*n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				p := o.ApplyToPoint(geom.Pt(geom.Coord(x), geom.Coord(y)), s)
				src[int(p.Y)*n+int(p.X)] = int32(y*n + x)
			}
		}
		t[oi] = src
	}
	actual, _ := orientTables.LoadOrStore(n, t)
	return actual.(*[geom.NumOrientations][]int32)
}

// l1Oriented is the L1 distance between a and b.Orient(o), for o's source
// table src, summed in order over a.D without materializing the oriented
// grid.
func l1Oriented(a, b Density, src []int32) float64 {
	var sum float64
	for i, v := range a.D {
		sum += math.Abs(v - b.D[src[i]])
	}
	return sum
}

// nearestOrientation returns the source table of b's orientation nearest
// to a in L1 (the first of geom.AllOrientations on ties) and that
// distance; the table is nil when no distance compares below +Inf.
// Centroid updates read members through the table, so that members
// accumulate in a consistent frame.
func nearestOrientation(a, b Density) ([]int32, float64) {
	best := math.Inf(1)
	var bestSrc []int32
	for _, src := range tablesFor(b.N) {
		if v := l1Oriented(a, b, src); v < best {
			best, bestSrc = v, src
		}
	}
	return bestSrc, best
}

// Dist implements the paper's Eq. (1): the minimum, over the eight
// orientations, of the summed pixel-density difference.
func Dist(a, b Density) float64 {
	if a.N != b.N {
		// Incomparable grids are infinitely far apart.
		return math.Inf(1)
	}
	_, d := nearestOrientation(a, b)
	return d
}

// Mean returns the element-wise mean of grids (all the same size). The
// zero-length input yields an empty grid.
func Mean(grids []Density) Density {
	if len(grids) == 0 {
		return Density{}
	}
	out := Density{N: grids[0].N, D: make([]float64, len(grids[0].D))}
	for _, g := range grids {
		// alpha = 1 keeps the accumulation exact: 1*v rounds to v, so the
		// simd path adds the same addends as the plain loop it replaced.
		simd.AxpyAccum(out.D, g.D, 1)
	}
	inv := 1 / float64(len(grids))
	for i := range out.D {
		out.D[i] *= inv
	}
	return out
}
