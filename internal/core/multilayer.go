package core

import (
	"fmt"

	"hotspot/internal/clip"
	"hotspot/internal/features"
	"hotspot/internal/svm"
	"hotspot/internal/topo"
)

// MultiLayerDetector realizes the §IV-A extension: hotspots formed by
// layout patterns on multiple metal layers. Topological classification
// runs on one selected layer; each cluster's kernel is trained on the
// multilayer feature sets (m per-layer sets plus m-1 adjacent-overlap
// sets, flattened with a fixed slot budget).
type MultiLayerDetector struct {
	cfg           Config
	classifyLayer int
	slots         int
	kernels       []*mlKernel
}

type mlKernel struct {
	key      string
	centroid topo.Density
	scaler   *svm.Scaler
	model    *svm.Model
}

// mlVector flattens a multilayer pattern's core feature sets.
func mlVector(p *clip.MultiPattern, slots int) []float64 {
	set := features.ExtractMultiLayer(p.CoreLayers(), p.Core)
	return set.Vector(p.Core, slots)
}

// TrainMultiLayer builds a multilayer detector. classifyLayer selects the
// layer used for topological classification (the paper picks one layer;
// -1 picks layer 0).
func TrainMultiLayer(train []*clip.MultiPattern, classifyLayer int, cfg Config) (*MultiLayerDetector, error) {
	if classifyLayer < 0 {
		classifyLayer = 0
	}
	var hs, nhs []*clip.MultiPattern
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
	// A lean slot budget keeps the inter-layer overlap features (whose
	// nontopological components carry the landing-health signal) from
	// being drowned by per-layer context slots in the RBF distance.
	d := &MultiLayerDetector{cfg: cfg, classifyLayer: classifyLayer, slots: 8}

	samples := func(ps []*clip.MultiPattern) []topo.Sample {
		out := make([]topo.Sample, len(ps))
		for i, p := range ps {
			out[i] = topo.Sample{Rects: p.Layer(classifyLayer), Region: p.Core}
		}
		return out
	}
	// Downsample nonhotspots to cluster representatives, as in the
	// single-layer flow.
	nhsClusters := topo.Classify(samples(nhs), cfg.Topo)
	centroids := make([]*clip.MultiPattern, len(nhsClusters))
	for i, c := range nhsClusters {
		centroids[i] = nhs[c.Representative]
	}

	hsClusters, hsGrids := topo.ClassifyParallel(samples(hs), cfg.Topo, nil, cfg.Workers)
	hsClusters = topo.MergeClusters(hsClusters, hsGrids, cfg.MaxKernels)

	emit := progressEmitter(cfg)
	for ci, cluster := range hsClusters {
		rows := make([][]float64, 0, len(cluster.Members)+len(centroids))
		labels := make([]int, 0, cap(rows))
		for _, m := range cluster.Members {
			rows = append(rows, mlVector(hs[m], d.slots))
			labels = append(labels, +1)
		}
		for _, p := range centroids {
			rows = append(rows, mlVector(p, d.slots))
			labels = append(labels, -1)
		}
		scaler := svm.FitScaler(rows)
		model, _, err := iterativeTrain(scaler.ApplyAll(rows), labels, cfg, groupParams(cfg, ci), 1, roundEmitter(emit, "train.multilayer", ci))
		if err != nil {
			return nil, fmt.Errorf("core: multilayer kernel %d: %w", ci, err)
		}
		d.kernels = append(d.kernels, &mlKernel{
			key:      cluster.Key,
			centroid: cluster.Centroid,
			scaler:   scaler,
			model:    model,
		})
	}
	return d, nil
}

// NumKernels returns the kernel count.
func (d *MultiLayerDetector) NumKernels() int { return len(d.kernels) }

// ClassifyPattern evaluates one multilayer clip.
func (d *MultiLayerDetector) ClassifyPattern(p *clip.MultiPattern) clip.Label {
	x := mlVector(p, d.slots)
	for _, k := range d.kernels {
		if k.model.PredictWithBias(k.scaler.Apply(x), d.cfg.Bias) > 0 {
			return clip.Hotspot
		}
	}
	return clip.NonHotspot
}
