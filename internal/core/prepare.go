package core

import (
	"fmt"
	"sync"

	"hotspot/internal/clip"
	"hotspot/internal/features"
	"hotspot/internal/obs"
	"hotspot/internal/par"
	"hotspot/internal/svm"
	"hotspot/internal/topo"
)

// Prepared is the model-selection view of a training set: the framework's
// preprocessing — data-shifting upsampling, topological classification,
// nonhotspot centroid downsampling (Fig. 9, stages before kernel fitting)
// — applied exactly once. Cross-validated hyperparameter search
// (internal/train) and the final Train call both operate on a Prepared,
// so they agree byte-for-byte on the group structure: group i of the
// search is kernel i of the trained detector.
//
// A Prepared is immutable except for SetGroupParams and is safe to Train
// more than once.
type Prepared struct {
	cfg Config
	// rawNHS are the training nonhotspots, the feedback kernel's
	// self-evaluation population.
	rawNHS []*clip.Pattern
	// hs is the upsampled hotspot population (the raw hotspots in Basic
	// mode).
	hs []*clip.Pattern
	// clusters are the hotspot topology clusters; empty in Basic mode,
	// where the single huge kernel is the only group.
	clusters []topo.Cluster
	// centroids are every group's negatives: the nonhotspot cluster
	// centroids (every raw nonhotspot in Basic mode).
	centroids []*clip.Pattern
	stats     TrainStats
	tel       obs.Telemetry

	// hsEx and centroidEx are the core feature material of hs and
	// centroids, extracted once on first use (see material) and aligned
	// into every group's slot layout from there.
	exOnce           sync.Once
	hsEx, centroidEx []features.Extracted
}

// Prepare runs the training-set preprocessing and returns the grouped
// view. Train(train, cfg) is exactly Prepare(train, cfg) followed by
// Prepared.Train().
func Prepare(train []*clip.Pattern, cfg Config) (*Prepared, error) {
	var hs, nhs []*clip.Pattern
	for _, p := range train {
		if p.Label == clip.Hotspot {
			hs = append(hs, p)
		} else {
			nhs = append(nhs, p)
		}
	}
	if len(hs) == 0 {
		return nil, ErrNoHotspots
	}
	if len(nhs) == 0 {
		return nil, ErrNoNonHotspots
	}
	p := &Prepared{cfg: cfg, rawNHS: nhs}
	if !cfg.EnableTopo {
		// Basic baseline: one huge kernel over the raw training data —
		// no data shifting, no downsampling — matching the unbalanced
		// #hs/#nhs ratios of the Table III "Basic" rows.
		p.hs, p.centroids = hs, nhs
		p.stats.HotspotClusters = 1
		p.stats.UpsampledHS = len(hs)
		p.stats.NonHotspotCentroids = len(nhs)
		return p, nil
	}
	tel := &p.tel

	// Upsample hotspots by data shifting (§III-D3): four shifted
	// derivatives per pattern introduce the fuzziness that absorbs clip
	// extraction misalignment.
	sp := obs.Begin(tel, cfg.Obs, "train.upsample")
	p.hs = upsample(hs, cfg.ShiftNM)
	p.stats.UpsampledHS = len(p.hs)
	sp.AddItems(int64(len(p.hs)))
	sp.End()

	// Downsample nonhotspots to topological cluster centroids.
	sp = obs.Begin(tel, cfg.Obs, "train.classify.nonhotspot")
	nhsClusters, nhsGrids := topo.ClassifyParallel(coreSamples(nhs), cfg.Topo, cfg.Obs, cfg.Workers)
	p.stats.NonHotspotClusters = len(nhsClusters)
	sp.AddItems(int64(len(nhsClusters)))
	sp.End()
	sp = obs.Begin(tel, cfg.Obs, "train.downsample")
	nhsClusters = topo.MergeClusters(nhsClusters, nhsGrids, cfg.MaxCentroids)
	p.centroids = make([]*clip.Pattern, len(nhsClusters))
	for i, c := range nhsClusters {
		p.centroids[i] = nhs[c.Representative]
	}
	p.stats.NonHotspotCentroids = len(p.centroids)
	sp.AddItems(int64(len(p.centroids)))
	sp.End()

	sp = obs.Begin(tel, cfg.Obs, "train.classify.hotspot")
	hsClusters, hsGrids := topo.ClassifyParallel(coreSamples(p.hs), cfg.Topo, cfg.Obs, cfg.Workers)
	p.stats.HotspotClusters = len(hsClusters)
	p.clusters = topo.MergeClusters(hsClusters, hsGrids, cfg.MaxKernels)
	sp.AddItems(int64(len(p.clusters)))
	sp.End()
	return p, nil
}

// material returns the core feature material of the upsampled hotspots
// and of the centroids. Every pattern is canonicalized and extracted
// exactly once per Prepared, in parallel over cfg.Workers, on first use;
// all groups (and repeated Train and GroupDataset calls) then share it.
func (p *Prepared) material() (hsEx, centroidEx []features.Extracted) {
	p.exOnce.Do(func() {
		all := append(append([]*clip.Pattern(nil), p.hs...), p.centroids...)
		ex := make([]features.Extracted, len(all))
		par.For(len(all), p.cfg.Workers, func(i int) {
			ex[i] = features.ExtractAll(all[i].CoreRects(), all[i].Core)
		})
		p.hsEx, p.centroidEx = ex[:len(p.hs)], ex[len(p.hs):]
	})
	return p.hsEx, p.centroidEx
}

// Config returns the configuration the set was prepared under (including
// any SetGroupParams applied since).
func (p *Prepared) Config() Config { return p.cfg }

// NumGroups returns the number of topology groups (per-cluster kernels);
// 1 in Basic mode.
func (p *Prepared) NumGroups() int {
	if !p.cfg.EnableTopo {
		return 1
	}
	return len(p.clusters)
}

// GroupKey returns group i's canonical topology key ("" in Basic mode).
// Keys may repeat across groups: density-level clustering can split one
// string-level bucket.
func (p *Prepared) GroupKey(i int) string {
	if !p.cfg.EnableTopo {
		return ""
	}
	return p.clusters[i].Key
}

// GroupSize returns group i's population: its hotspot member count (after
// upsampling) and its negative count (the shared centroid set).
func (p *Prepared) GroupSize(i int) (hotspots, negatives int) {
	if !p.cfg.EnableTopo {
		return len(p.hs), len(p.centroids)
	}
	return len(p.clusters[i].Members), len(p.centroids)
}

// GroupDataset builds group i's labelled, scaled dataset — exactly the
// rows kernel i trains on: member hotspot vectors (+1) against the
// nonhotspot centroids (-1), in the representative's slot layout, scaled
// by a scaler fit on those rows.
func (p *Prepared) GroupDataset(i int) (rows [][]float64, labels []int) {
	_, rows, labels, _ = p.groupRows(i)
	return rows, labels
}

// groupRows builds group i's dataset from the shared feature material and
// returns the group's extractor (the representative's slot layout; nil in
// Basic mode, whose rows are direct feature vectors), the scaled rows,
// the +1/-1 labels and the scaler.
func (p *Prepared) groupRows(i int) (*features.Extractor, [][]float64, []int, *svm.Scaler) {
	hsEx, centroidEx := p.material()
	var ex *features.Extractor
	vector := func(e features.Extracted) []float64 { return features.VectorDirectFrom(e, p.cfg.BasicSlots) }
	members := hsEx
	if p.cfg.EnableTopo {
		cluster := p.clusters[i]
		ex = features.NewExtractorFromSlots(hsEx[cluster.Representative].Rules)
		vector = ex.VectorFrom
		members = make([]features.Extracted, len(cluster.Members))
		for j, m := range cluster.Members {
			members[j] = hsEx[m]
		}
	}
	rows := make([][]float64, 0, len(members)+len(centroidEx))
	labels := make([]int, 0, cap(rows))
	for _, e := range members {
		rows = append(rows, vector(e))
		labels = append(labels, +1)
	}
	for _, e := range centroidEx {
		rows = append(rows, vector(e))
		labels = append(labels, -1)
	}
	sc := svm.FitScaler(rows)
	return ex, sc.ApplyAll(rows), labels, sc
}

// groupMembers resolves a cluster's member indices to patterns.
func (p *Prepared) groupMembers(cluster topo.Cluster) []*clip.Pattern {
	members := make([]*clip.Pattern, len(cluster.Members))
	for i, m := range cluster.Members {
		members[i] = p.hs[m]
	}
	return members
}

// SetGroupParams installs per-group hyperparameter overrides (indexed by
// group number) for subsequent Train calls.
func (p *Prepared) SetGroupParams(gp []GroupParams) {
	p.cfg.GroupParams = append([]GroupParams(nil), gp...)
}

// Train fits the detector from the prepared groups: per-cluster iterative
// SVM learning (seeded by GroupParams where set) and feedback kernel
// learning. It may be called repeatedly; each call trains from scratch.
func (p *Prepared) Train() (*Detector, error) {
	cfg := p.cfg
	d := &Detector{cfg: cfg, stats: p.stats}
	// Copy the preprocessing telemetry so repeated Train calls cannot
	// share (and clobber) one backing array.
	d.telemetry = obs.Telemetry{Stages: append([]obs.StageStats(nil), p.tel.Stages...)}
	d.telemetry.AddCounters(p.tel.Counters)
	tel := &d.telemetry
	emit := progressEmitter(cfg)

	sp := obs.Begin(tel, cfg.Obs, "train.kernels")
	if !cfg.EnableTopo {
		sp.AddItems(1)
		unit := &kernelUnit{hotspots: p.hs}
		iters, err := p.trainKernel(0, unit, roundEmitter(emit, "train.kernels", 0))
		if err != nil {
			return nil, err
		}
		sp.End()
		d.kernels = append(d.kernels, unit)
		d.stats.SelfIters = iters
		return d, nil
	}

	// Train one kernel per hotspot cluster, in parallel (§III-G), from
	// feature material extracted once up front.
	p.material()
	units := make([]*kernelUnit, len(p.clusters))
	iters := make([]int, len(p.clusters))
	errs := make([]error, len(p.clusters))
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(cfg.Workers, 1))
	for ci, cluster := range p.clusters {
		wg.Add(1)
		go func(ci int, cluster topo.Cluster) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			units[ci] = &kernelUnit{key: cluster.Key, centroid: cluster.Centroid, hotspots: p.groupMembers(cluster)}
			iters[ci], errs[ci] = p.trainKernel(ci, units[ci], roundEmitter(emit, "train.kernels", ci))
		}(ci, cluster)
	}
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: kernel %d: %w", ci, err)
		}
		d.kernels = append(d.kernels, units[ci])
		d.stats.SelfIters += iters[ci]
	}
	sp.AddItems(int64(len(d.kernels)))
	sp.End()

	if cfg.EnableFeedback {
		// The self-evaluation set includes shifted nonhotspot derivatives:
		// evaluation-phase extras mostly come from clip-extraction
		// alignment variability, which the shifts reproduce.
		sp = obs.Begin(tel, cfg.Obs, "train.feedback")
		d.trainFeedback(upsample(p.rawNHS, cfg.ShiftNM), cfg, roundEmitter(emit, "train.feedback", -1))
		sp.AddItems(int64(d.stats.FeedbackExtras))
		sp.End()
	}
	d.telemetry.AddCounter("train.self_iters", int64(d.stats.SelfIters))
	return d, nil
}

// trainKernel fits group i's kernel into unit: the group's hotspots
// against the centroids, with iterative C/gamma doubling seeded by the
// group's hyperparameter override (when set).
func (p *Prepared) trainKernel(i int, unit *kernelUnit, onRound func(int, int, float64, float64, float64)) (int, error) {
	var scaled [][]float64
	var labels []int
	unit.extractor, scaled, labels, unit.scaler = p.groupRows(i)
	var iters int
	var err error
	unit.model, iters, err = iterativeTrain(scaled, labels, p.cfg, groupParams(p.cfg, i), 1, onRound)
	return iters, err
}
