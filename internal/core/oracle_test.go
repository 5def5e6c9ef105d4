package core

import (
	"hotspot/internal/clip"
	"hotspot/internal/features"
	"hotspot/internal/topo"
)

// This file is the per-clip reference oracle for the batched evaluation
// path: a direct, unbatched, unmemoized transcription of the multiple-kernel
// evaluation (§III-D4) and the feedback kernel (§III-E) through scalar
// svm.Model.Decision calls. TestClassifyBatchMatchesScalar holds every
// production verdict to it.

// oracleVerdict is the oracle's full verdict for one clip, in the batched
// path's batchVerdict shape.
func (d *Detector) oracleVerdict(p *clip.Pattern, cfg Config) batchVerdict {
	flagged, kidx, conf, evals := d.multiKernelEval(p, cfg)
	return batchVerdict{flagged: flagged, kidx: kidx, conf: conf, evals: evals}
}

// oracleLabel is the oracle's predicted label for one clip.
func (d *Detector) oracleLabel(p *clip.Pattern, cfg Config) clip.Label {
	hit, _, conf, _ := d.multiKernelEval(p, cfg)
	if !hit || d.feedbackReclaims(p, conf, cfg) {
		return clip.NonHotspot
	}
	return clip.Hotspot
}

// multiKernelEval is multiKernelFlag plus the maximum decision value over
// all kernels, used as the flag's confidence by the feedback stage. The
// last return is the number of kernel decision evaluations performed.
func (d *Detector) multiKernelEval(p *clip.Pattern, cfg Config) (bool, int, float64, int) {
	flagged, kidx, evals := d.multiKernelFlag(p, cfg)
	if !flagged {
		return false, kidx, 0, evals
	}
	// Compute the confidence (max decision) only for flagged clips.
	ex := features.ExtractAll(p.CoreRects(), p.Core)
	best := 0.0
	for _, k := range d.kernels {
		var x []float64
		if k.key == "" && len(d.kernels) == 1 {
			x = k.scaler.Apply(features.VectorDirectFrom(ex, cfg.BasicSlots))
		} else {
			x = k.scaler.Apply(k.extractor.VectorFrom(ex))
		}
		if v := k.model.Decision(x); v > best {
			best = v
		}
	}
	evals += len(d.kernels)
	return true, kidx, best, evals
}

// multiKernelFlag runs the multiple-kernel evaluation (§III-D4): the clip
// is flagged as a hotspot when any kernel classifies it as one. Features
// are extracted once and aligned per kernel. With RouteK > 0 the clip is
// instead routed to exact-topology kernels or its RouteK density-nearest
// kernels — a cheaper approximation (see BenchmarkAblationRouting for the
// accuracy cost). Returns the flag, the index of the flagging kernel (for
// feedback training), and the number of kernel decisions evaluated.
func (d *Detector) multiKernelFlag(p *clip.Pattern, cfg Config) (bool, int, int) {
	if len(d.kernels) == 0 {
		return false, -1, 0
	}
	ex := features.ExtractAll(p.CoreRects(), p.Core)
	if len(d.kernels) == 1 && d.kernels[0].key == "" {
		// Basic single kernel: no routing.
		k := d.kernels[0]
		x := k.scaler.Apply(features.VectorDirectFrom(ex, cfg.BasicSlots))
		if k.model.PredictWithBias(x, cfg.Bias) > 0 {
			return true, 0, 1
		}
		return false, -1, 1
	}
	if cfg.RouteK > 0 {
		key := topo.CanonicalKey(p.CoreRects(), p.Core)
		evals := 0
		for _, ki := range routedKernels(d.kernels, key, p, cfg) {
			k := d.kernels[ki]
			x := k.scaler.Apply(k.extractor.VectorFrom(ex))
			evals++
			if k.model.PredictWithBias(x, cfg.Bias) > 0 {
				return true, ki, evals
			}
		}
		return false, -1, evals
	}
	for ki, k := range d.kernels {
		x := k.scaler.Apply(k.extractor.VectorFrom(ex))
		if k.model.PredictWithBias(x, cfg.Bias) > 0 {
			return true, ki, ki + 1
		}
	}
	return false, -1, len(d.kernels)
}

// feedbackReclaims applies the feedback kernel to a flagged clip: the flag
// is withdrawn only when the feedback decision is clearly on the
// nonhotspot side (below -FeedbackMargin) AND the multi-kernel flag was
// weak (confidence below FeedbackOverride) — confidently flagged clips are
// never reclaimed, so accuracy is not sacrificed for false-alarm
// reduction.
func (d *Detector) feedbackReclaims(p *clip.Pattern, confidence float64, cfg Config) bool {
	if d.feedback == nil {
		return false
	}
	if confidence >= cfg.FeedbackOverride && cfg.FeedbackOverride > 0 {
		return false
	}
	x := d.feedback.scaler.Apply(d.feedback.vector(p))
	return d.feedback.model.Decision(x) < -cfg.FeedbackMargin
}
