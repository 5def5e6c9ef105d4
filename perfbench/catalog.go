package main

// metricDef describes one metric the benchmark prints. The end-to-end
// entries (Bound > 0) and the per-layer entries mirror BENCHMARK.json, which
// may carry only name, unit, direction and bound; the layer, the end-to-end
// metric a per-layer figure should move, the rationale and the superseded
// BENCH_*.json figure live here instead (TestCatalogMatchesBenchmarkJSON
// keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; 0 marks a per-layer metric.
	Bound float64
	// Layer is the package (or the benchmark itself) the metric reads.
	Layer string
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move.
	Moves string
	Why   string
	// Supersedes names the BENCH_*.json figure the metric replaces, if any.
	Supersedes string
}

// endToEnd are the user-visible metrics, printed by untraced runs
// (--trace 0). Every workload runs every operation, so each is measured,
// and never 0, on every workload. Timed steps report the median of their
// repetitions (see repeat); the serve metrics pool every request of the
// run's serve step.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "perfbench",
		Why: "all untimed work of a run: fixed training set, model save/load, edit, request encoding and expected answers, server start/stop"},
	{Name: "gen_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "iccad",
		Why: "hotspot gen of the seeded testing layout; litho oracle labelling dominates"},
	{Name: "train_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "core",
		Why:        "hotspot train: core.Prepare + Prepared.Train on the workload's training clip set",
		Supersedes: "BENCH_train.json cross_validate_ns (76-clip fixture at GOMAXPROCS=1)"},
	{Name: "scan_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "core/scan",
		Why:        "hotspot scan -model: tiled scan of the whole testing layout by a freshly loaded detector",
		Supersedes: "BENCH_scan.json scan_ns.tiled_w8 and scan_ns.incremental_cold"},
	{Name: "rescan_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "core/scan",
		Why:        "re-scan after one seeded 40x40 nm edit: incremental through the tile store where the workload keeps one, plain otherwise",
		Supersedes: "BENCH_scan.json scan_ns.incremental_warm"},
	{Name: "hits", Unit: "count", Better: "higher", Bound: 0.02, Layer: "core",
		Why: "actual hotspots found by the scan, scored by core.EvaluateReport against the generated truth; exact, so any change is a behaviour change"},
	{Name: "extras", Unit: "count", Better: "lower", Bound: 0.02, Layer: "core",
		Why: "reported hotspots matching no actual hotspot (false alarms), same scoring"},
	{Name: "detect_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "server",
		Why: "client-side median latency of a 32-clip POST /v1/detect under 2 closed-loop clients"},
	{Name: "detect_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "server",
		Why: "client-side p90 of the same requests (at least 10 samples lie beyond it)"},
	{Name: "detect_clips_per_s", Unit: "clips/s", Better: "higher", Bound: 0.25, Layer: "server",
		Why:        "clips classified through /v1/detect per second of request-list wall time",
		Supersedes: "BENCH_extract.json ns_per_clip and BENCH_svm.json decision_ns_per_batch"},
	{Name: "scanreq_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "server",
		Why: "client-side median latency of a POST /v1/scan window (monolithic Detect route)"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2, Layer: "process",
		Why: "peak resident set of the whole run (getrusage maxrss)"},
}

// perLayer are read in the separate traced run (--trace 1) from the
// program's own stages and counters plus the benchmark's spans. A layer a
// workload does not exercise reads 0: the tile-store figures
// (scan.store_open_s, scan.store_bytes, scan.tiles_cached,
// scan.tiles_dirty) on train-dense, which keeps no store.
var perLayer = []metricDef{
	{Name: "iccad.generate_s", Unit: "s", Better: "lower", Layer: "iccad/litho",
		Moves: "gen_s on every workload", Why: "iccad.Generate span of the gen step"},
	{Name: "iccad.train_clips", Unit: "count", Better: "higher", Layer: "iccad",
		Moves: "train_s (work count)", Why: "training clip set size"},
	{Name: "iccad.test_rects", Unit: "count", Better: "higher", Layer: "iccad",
		Moves: "scan_s (work count)", Why: "testing layout rectangle count"},
	{Name: "core.prepare_s", Unit: "s", Better: "lower", Layer: "core",
		Moves: "train_s, mostly train-dense", Why: "core.Prepare span: upsampling, topological classification, downsampling"},
	{Name: "topo.classify_s", Unit: "s", Better: "lower", Layer: "topo",
		Moves: "train_s, mostly train-dense", Why: "train.classify.nonhotspot + train.classify.hotspot stages"},
	{Name: "core.downsample_s", Unit: "s", Better: "lower", Layer: "core",
		Moves: "train_s, mostly train-dense", Why: "train.downsample stage (centroid merge)"},
	{Name: "topo.clusters", Unit: "count", Better: "lower", Layer: "topo",
		Moves: "train_s", Why: "topo.clusters counter over both classifications"},
	{Name: "core.fit_s", Unit: "s", Better: "lower", Layer: "core",
		Moves: "train_s on train-dense", Why: "Prepared.Train span"},
	{Name: "svm.kernels_s", Unit: "s", Better: "lower", Layer: "svm",
		Moves: "train_s on train-dense", Why: "train.kernels stage (per-cluster SMO)",
		Supersedes: "BENCH_svm.json smo_solve_ns"},
	{Name: "svm.feedback_s", Unit: "s", Better: "lower", Layer: "svm",
		Moves: "train_s on train-dense", Why: "train.feedback stage (feedback-kernel SMO)"},
	{Name: "svm.smo_iterations", Unit: "count", Better: "lower", Layer: "svm",
		Moves: "train_s on train-dense", Why: "svm.smo_iterations counter"},
	{Name: "svm.trainings", Unit: "count", Better: "lower", Layer: "svm",
		Moves: "train_s on train-dense", Why: "svm.trainings counter (SMO solves)"},
	{Name: "svm.support_vectors", Unit: "count", Better: "lower", Layer: "svm",
		Moves: "train_s and scan_s", Why: "svm.support_vectors counter summed over solves"},
	{Name: "svm.kernel_cache_misses", Unit: "count", Better: "lower", Layer: "svm",
		Moves: "train_s on train-dense", Why: "svm.kernel_cache_misses counter"},
	{Name: "svm.solve_max_s", Unit: "s", Better: "lower", Layer: "svm",
		Moves: "train_s on train-dense", Why: "largest single SMO solve (svm.train_seconds max)"},
	{Name: "train.unattributed_s", Unit: "s", Better: "lower", Layer: "perfbench",
		Moves: "train_s", Why: "train-step wall time that no span or stage claims"},
	{Name: "clip.extract_s", Unit: "s", Better: "lower", Layer: "clip",
		Moves: "scan_s on scan-chip", Why: "detect.extract stage of the traced-only monolithic Detect"},
	{Name: "core.evaluate_s", Unit: "s", Better: "lower", Layer: "core",
		Moves: "scan_s on scan-chip", Why: "detect.evaluate stage of the traced-only Detect"},
	{Name: "core.removal_s", Unit: "s", Better: "lower", Layer: "core",
		Moves: "scan_s on scan-chip only", Why: "detect.removal stage of the traced-only Detect"},
	{Name: "scan.candidates", Unit: "count", Better: "lower", Layer: "clip",
		Moves: "scan_s (work count)", Why: "clips extracted by the traced-only Detect"},
	{Name: "eval.memo_hits", Unit: "count", Better: "higher", Layer: "core",
		Moves: "scan_s", Why: "verdict-memo hits during the traced-only Detect",
		Supersedes: "BENCH_extract.json ns_per_clip.prescreen_hit"},
	{Name: "eval.memo_misses", Unit: "count", Better: "lower", Layer: "core",
		Moves: "scan_s", Why: "verdict-memo misses during the traced-only Detect"},
	{Name: "detect.kernel_evals", Unit: "count", Better: "lower", Layer: "core",
		Moves: "scan_s", Why: "kernel decisions of the traced-only Detect"},
	{Name: "eval.memo_hit_ratio", Unit: "ratio", Better: "higher", Layer: "core",
		Moves: "scan_s", Why: "memo hits over memo lookups"},
	{Name: "eval.prescreen_reject_ratio", Unit: "ratio", Better: "higher", Layer: "core",
		Moves: "scan_s", Why: "envelope rejects over clips screened (0 while the envelope never fires)"},
	{Name: "detect.reclaim_ratio", Unit: "ratio", Better: "higher", Layer: "core",
		Moves: "extras", Why: "feedback-kernel reclaims over flagged clips"},
	{Name: "scan.allocs_per_clip", Unit: "allocs/clip", Better: "lower", Layer: "scan",
		Moves: "scan_s on every workload", Why: "runtime.MemStats Mallocs delta around the traced tiled scan over candidates",
		Supersedes: "BENCH_extract.json steady_state_allocs"},
	{Name: "scan.alloc_bytes_per_clip", Unit: "B/clip", Better: "lower", Layer: "scan",
		Moves: "scan_s on every workload", Why: "TotalAlloc delta around the traced tiled scan over candidates"},
	{Name: "scan.tiles_s", Unit: "s", Better: "lower", Layer: "scan",
		Moves: "scan_s", Why: "scan.tiles stage of the traced tiled scan"},
	{Name: "scan.halo_lookup_ratio", Unit: "ratio", Better: "lower", Layer: "scan",
		Moves: "scan_s", Why: "memo lookups in the tiled scan over monolithic candidates (halo re-evaluation)"},
	{Name: "scan.unattributed_s", Unit: "s", Better: "lower", Layer: "perfbench",
		Moves: "scan_s", Why: "scan-step wall time that no span or stage claims"},
	{Name: "scan.store_open_s", Unit: "s", Better: "lower", Layer: "scan",
		Moves: "rescan_s on scan-chip", Why: "OpenStore span of the re-scan (warm store)"},
	{Name: "scan.tiles_cached", Unit: "count", Better: "higher", Layer: "scan",
		Moves: "rescan_s on scan-chip", Why: "tiles served from the store by the re-scan"},
	{Name: "scan.tiles_dirty", Unit: "count", Better: "lower", Layer: "scan",
		Moves: "rescan_s on scan-chip", Why: "tiles the re-scan evaluated"},
	{Name: "scan.store_bytes", Unit: "B", Better: "lower", Layer: "scan",
		Moves: "rescan_s on scan-chip", Why: "tile store size after the re-scan"},
	{Name: "rescan.tiles_s", Unit: "s", Better: "lower", Layer: "scan",
		Moves: "rescan_s on scan-chip", Why: "scan.tiles stage of the traced re-scan"},
	{Name: "core.load_s", Unit: "s", Better: "lower", Layer: "core",
		Moves: "setup_s", Why: "core.Load span before the scan"},
	{Name: "server.batch_size_mean", Unit: "clips", Better: "higher", Layer: "server",
		Moves: "detect_clips_per_s", Why: "mean coalesced batch (server.batch.size)"},
	{Name: "server.classify_us_per_clip", Unit: "us", Better: "lower", Layer: "server",
		Moves: "detect_p50_ms", Why: "server.classify.seconds mean per clip"},
	{Name: "http.detect_server_p50_ms", Unit: "ms", Better: "lower", Layer: "server",
		Moves: "detect_p50_ms", Why: "server-side p50 of /v1/detect (http.latency.detect)"},
	{Name: "http.detect_transport_ms", Unit: "ms", Better: "lower", Layer: "server",
		Moves: "detect_p50_ms", Why: "client p50 minus server p50 of /v1/detect"},
	{Name: "http.scan_server_p50_ms", Unit: "ms", Better: "lower", Layer: "server",
		Moves: "scanreq_p50_ms", Why: "server-side p50 of /v1/scan (http.latency.scan)"},
	{Name: "server.queue_rejected", Unit: "count", Better: "lower", Layer: "server",
		Moves: "detect_p90_ms", Why: "server.queue.rejected counter; every 429 is also a failed request"},
	{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower", Layer: "obs",
		Moves: "none (tracing cost)", Why: "traced over untraced wall time of the timed steps, minus 1"},
}
