package core

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"hotspot/internal/simd"
)

// BenchmarkEvalClipPipeline measures steady-state clip evaluation (one
// detectChunk batch, serial workers — the tile evaluator's shape) through
// the two fast-path regimes:
//
//   - prescreen-hit: the verdict memo resolves every clip (warmed memo),
//     the zero-allocation steady state of repeated layout geometry;
//   - full-eval: the memo is off (memoDisabled), so every clip takes
//     feature extraction and the kernel decisions — the slow path. A memo
//     miss costs the same plus one geometry hash.
//
// bench-extract-baseline.txt holds the pre-fast-path numbers for the same
// benchmark names (every regime ran the then-only full pipeline); CI
// benchstat-diffs fresh runs against it, and the alloc gate requires the
// prescreen-hit case to report 0 allocs/op.
func BenchmarkEvalClipPipeline(b *testing.B) {
	bench := testBenchmark()
	d := trainedDetector(b, DefaultConfig())
	s := getScratch()
	defer putScratch(s)
	ps, cfg := evalFixture(b, d, bench.Test, s)

	run := func(b *testing.B, cfg Config) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.evalBatchScratch(s, ps, cfg)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ps)), "ns/clip")
	}
	b.Run("prescreen-hit", func(b *testing.B) {
		d.evalBatchScratch(s, ps, cfg) // warm the memo
		run(b, cfg)
	})
	b.Run("full-eval", func(b *testing.B) {
		d.memoDisabled = true
		defer func() { d.memoDisabled = false }()
		run(b, cfg)
	})
}

// TestWriteBenchExtractJSON regenerates BENCH_extract.json at the repo
// root when HOTSPOT_BENCH_JSON is set (see `make bench-extract-json` and
// EXPERIMENTS.md): per-regime ns/clip plus the hit-path speedup over the
// memo-disabled slow path.
func TestWriteBenchExtractJSON(t *testing.T) {
	if os.Getenv("HOTSPOT_BENCH_JSON") == "" {
		t.Skip("set HOTSPOT_BENCH_JSON=1 to (re)write BENCH_extract.json")
	}
	gomaxprocs := runtime.GOMAXPROCS(0) // before AllocsPerRun pins it to 1
	bench := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	s := getScratch()
	defer putScratch(s)
	ps, cfg := evalFixture(t, d, bench.Test, s)

	nsPerClip := func(cfg Config) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.evalBatchScratch(s, ps, cfg)
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N) / float64(len(ps))
	}
	d.evalBatchScratch(s, ps, cfg) // warm the memo
	hit := nsPerClip(cfg)
	d.memoDisabled = true
	full := nsPerClip(cfg)
	d.memoDisabled = false

	allocs := testing.AllocsPerRun(20, func() { d.evalBatchScratch(s, ps, cfg) })

	doc := map[string]any{
		"generated_by":  "make bench-extract-json (internal/core TestWriteBenchExtractJSON)",
		"gomaxprocs":    gomaxprocs,
		"simd_dispatch": simd.Active(),
		"batch_clips":   len(ps),
		"ns_per_clip": map[string]float64{
			"prescreen_hit": hit,
			"full_eval":     full,
		},
		"speedup_hit_vs_full": full / hit,
		"steady_state_allocs": allocs,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_extract.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("hit %.0fns full %.0fns per clip (hit x%.1f vs full, %.1f allocs)",
		hit, full, full/hit, allocs)
}
