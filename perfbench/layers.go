package main

import (
	"context"

	"hotspot/internal/core"
	"hotspot/internal/obs"
)

// tracedDetect runs the traced-only monolithic Detect of the traced pass's
// testing layout, the source of the clip/eval per-layer metrics. Its
// report must equal the tiled scan's (the tiling contract).
func tracedDetect(ctx context.Context, tp *pass) (core.Report, error) {
	det, _, err := tp.load(tp.reg("detect"))
	if err != nil {
		return core.Report{}, err
	}
	var rep core.Report
	if _, err := tp.step("detect", func() error {
		tp.call("core.DetectContext", func() []obs.StageStats {
			rep, err = det.DetectContext(ctx, tp.test.Test)
			return rep.Telemetry.Stages
		})
		return err
	}); err != nil {
		return rep, err
	}
	if reportDigest(rep.Hotspots) != reportDigest(tp.coldRep.Hotspots) {
		tp.r.fail("monolithic Detect and tiled scan report different hotspots")
	}
	return rep, nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// callWall is the summed wall time of the named calls of a step.
func callWall(calls []call, name string) float64 {
	total := 0.0
	for _, c := range calls {
		if c.Name == name {
			total += c.Wall.Seconds()
		}
	}
	return total
}

// stepStages gathers every stage the program reported during a step.
func stepStages(calls []call) []obs.StageStats {
	var out []obs.StageStats
	for _, c := range calls {
		out = append(out, c.Stages...)
	}
	return out
}

// unattributed is a step's unattributed remainder in the traced pass.
func unattributed(tp *pass, step string) float64 {
	for _, a := range tp.attr {
		if a.Step == step {
			return a.Unattributed
		}
	}
	return 0
}

// stepWall sums the wall time of the steps with the given names.
func stepWall(p *pass, names ...string) float64 {
	total := 0.0
	for _, s := range p.steps {
		for _, n := range names {
			if s.Name == n {
				total += s.Wall.Seconds()
			}
		}
	}
	return total
}

// layerValues fills the per-layer metrics from the traced pass tp, its
// traced-only Detect report det, and the untraced pass u of the same inputs.
func layerValues(u, tp *pass, det core.Report, v map[string]float64) {
	train := tp.stepCalls["train"]
	trainStages := stepStages(train)
	treg := tp.regs["train"].Snapshot()
	v["iccad.generate_s"] = callWall(tp.stepCalls["gen"], "iccad.Generate")
	v["iccad.train_clips"] = float64(len(tp.r.train))
	v["iccad.test_rects"] = float64(tp.test.Test.NumRects())
	v["core.prepare_s"] = callWall(train, "core.Prepare")
	v["topo.classify_s"] = stageSeconds(trainStages, "train.classify.nonhotspot", "train.classify.hotspot")
	v["core.downsample_s"] = stageSeconds(trainStages, "train.downsample")
	v["topo.clusters"] = float64(treg.Counters["topo.clusters"])
	v["core.fit_s"] = callWall(train, "core.Prepared.Train")
	v["svm.kernels_s"] = stageSeconds(trainStages, "train.kernels")
	v["svm.feedback_s"] = stageSeconds(trainStages, "train.feedback")
	for _, c := range []string{"svm.smo_iterations", "svm.trainings", "svm.support_vectors", "svm.kernel_cache_misses"} {
		v[c] = float64(treg.Counters[c])
	}
	v["svm.solve_max_s"] = treg.Histograms["svm.train_seconds"].Max
	v["train.unattributed_s"] = unattributed(tp, "train")

	dreg := tp.regs["detect"].Snapshot().Counters
	hits, misses, rejects := float64(dreg["eval.memo_hits"]), float64(dreg["eval.memo_misses"]), float64(dreg["eval.prescreen_rejects"])
	v["clip.extract_s"] = stageSeconds(det.Telemetry.Stages, "detect.extract")
	v["core.evaluate_s"] = stageSeconds(det.Telemetry.Stages, "detect.evaluate")
	v["core.removal_s"] = stageSeconds(det.Telemetry.Stages, "detect.removal")
	v["scan.candidates"] = float64(det.Candidates)
	v["eval.memo_hits"] = hits
	v["eval.memo_misses"] = misses
	v["detect.kernel_evals"] = float64(det.Telemetry.Counters["detect.kernel_evals"])
	v["eval.memo_hit_ratio"] = ratio(hits, hits+misses)
	v["eval.prescreen_reject_ratio"] = ratio(rejects, rejects+hits+misses)
	v["detect.reclaim_ratio"] = ratio(float64(det.Reclaimed), float64(det.Flagged))

	cands := float64(tp.coldRep.Candidates)
	sreg := tp.regs["scan"].Snapshot().Counters
	v["scan.allocs_per_clip"] = ratio(float64(tp.scanMallocs), cands)
	v["scan.alloc_bytes_per_clip"] = ratio(float64(tp.scanAllocBytes), cands)
	v["scan.tiles_s"] = stageSeconds(stepStages(tp.stepCalls["scan"]), "scan.tiles")
	v["scan.halo_lookup_ratio"] = ratio(float64(sreg["eval.memo_hits"]+sreg["eval.memo_misses"]), float64(det.Candidates))
	v["scan.unattributed_s"] = unattributed(tp, "scan")

	rescan := tp.stepCalls["rescan"]
	v["scan.store_open_s"] = callWall(rescan, "core.OpenStore")
	v["scan.tiles_cached"] = float64(tp.rescanStats.TilesCached)
	v["scan.tiles_dirty"] = float64(tp.rescanStats.TilesDirty)
	v["scan.store_bytes"] = 0
	if st := tp.rescanStats.Store; st != nil {
		v["scan.store_bytes"] = float64(st.Bytes)
	}
	v["rescan.tiles_s"] = stageSeconds(stepStages(rescan), "scan.tiles")
	v["core.load_s"] = tp.loadWall.Seconds()

	srv := tp.regs["serve"].Snapshot()
	batch := srv.Histograms["server.batch.size"]
	classify := srv.Histograms["server.classify.seconds"]
	detectP50 := srv.Histograms["http.latency.detect"].P50 * 1e3
	v["server.batch_size_mean"] = ratio(batch.Sum, float64(batch.Count))
	v["server.classify_us_per_clip"] = ratio(classify.Sum, float64(classify.Count)) * 1e6
	v["http.detect_server_p50_ms"] = detectP50
	v["http.detect_transport_ms"] = ms(percentile(tp.lists[0].DetectLat, 0.5)) - detectP50
	v["http.scan_server_p50_ms"] = srv.Histograms["http.latency.scan"].P50 * 1e3
	v["server.queue_rejected"] = float64(srv.Counters["server.queue.rejected"])

	steps := []string{"gen", "train", "scan", "rescan", "serve"}
	v["obs.overhead_frac"] = ratio(stepWall(tp, steps...), stepWall(u, steps...)) - 1
}
