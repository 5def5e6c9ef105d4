package topo

import "sort"

// MergeClusters reduces a cluster set to at most maxN clusters by seeding
// with the maxN largest clusters and assigning every remaining cluster to
// the density-nearest seed. Representatives are re-picked from the merged
// membership. Synthetic or highly varied training sets can fragment the
// string-level classification far beyond the paper's expected cluster
// count (K = 10 on the repetitive industrial benchmarks); this merge
// restores a bounded kernel count without discarding any pattern. grids
// holds every member's canonical density grid, indexed like the member
// indices (ClassifyParallel returns them).
func MergeClusters(clusters []Cluster, grids []Density, maxN int) []Cluster {
	if maxN <= 0 || len(clusters) <= maxN {
		return clusters
	}
	idx := make([]int, len(clusters))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return len(clusters[idx[a]].Members) > len(clusters[idx[b]].Members)
	})
	seeds := make([]Cluster, maxN)
	for i := 0; i < maxN; i++ {
		c := clusters[idx[i]]
		seeds[i] = Cluster{
			Key:            c.Key,
			Members:        append([]int(nil), c.Members...),
			Centroid:       Density{N: c.Centroid.N, D: append([]float64(nil), c.Centroid.D...)},
			Representative: c.Representative,
		}
	}
	for i := maxN; i < len(idx); i++ {
		c := clusters[idx[i]]
		best, bestD := 0, -1.0
		for s := range seeds {
			d := Dist(c.Centroid, seeds[s].Centroid)
			if bestD < 0 || d < bestD {
				best, bestD = s, d
			}
		}
		sd := &seeds[best]
		// Weighted centroid update in the seed's frame, reading c's
		// centroid through its aligning orientation's source table.
		src, _ := nearestOrientation(sd.Centroid, c.Centroid)
		wa := float64(len(sd.Members))
		wb := float64(len(c.Members))
		for k := range sd.Centroid.D {
			sd.Centroid.D[k] = (sd.Centroid.D[k]*wa + c.Centroid.D[src[k]]*wb) / (wa + wb)
		}
		sd.Members = append(sd.Members, c.Members...)
	}
	// Re-pick representatives.
	for s := range seeds {
		best, bestD := -1, 0.0
		for _, m := range seeds[s].Members {
			_, d := nearestOrientation(seeds[s].Centroid, grids[m])
			if best == -1 || d < bestD {
				best, bestD = m, d
			}
		}
		seeds[s].Representative = best
	}
	return seeds
}
