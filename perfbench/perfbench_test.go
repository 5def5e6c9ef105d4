package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hotspot/internal/core"
	"hotspot/internal/iccad"
)

// small shrinks a workload to MX_benchmark1 at scale 0.25 for the smoke
// tests, keeping its shape (store, serve length).
func small(w workload) workload {
	w.Bench = "MX_benchmark1"
	w.TrainScale, w.TestScale = 0.25, 0.25
	return w
}

// inCheckout runs the test from a scratch directory so the benchmark's
// .bench_out lands there.
func inCheckout(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// benchmarkJSON is the part of BENCHMARK.json the catalog mirrors.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the benchmark's
// metric catalog and workload list in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalog", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the catalog", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalog", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the catalog", i, m, d)
		}
	}
}

// TestSmoke runs every workload once untraced and once traced at
// MX_benchmark1 scale 0.25 and checks that each prints every metric
// BENCHMARK.json names, with its unit, from correct outputs. The traced run
// also checks attribution and that the untraced and traced passes of the
// same seed report the same hotspots.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and trains three benchmarks")
	}
	bj := readBenchmarkJSON(t)
	inCheckout(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := benchmark(context.Background(), small(w), 5, time.Second, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			for _, m := range bj.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				want = map[string]string{}
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, name, m, unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
		}
	}
}

// TestSeedReproducesDigest checks that one seed reproduces the inputs and
// the report digest and that another seed changes the inputs.
func TestSeedReproducesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and trains a benchmark")
	}
	w := small(workloads[1])
	train, err := trainingSet(w, "unknown")
	if err != nil {
		t.Fatal(err)
	}
	var inputs, reports []string
	for _, seed := range []int64{3, 3, 4} {
		r := &run{w: w, seed: seed, dir: t.TempDir(), train: train}
		p := newPass(r, false, 0)
		if err := p.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(r.problems) != 0 {
			t.Fatalf("seed %d: %v", seed, r.problems)
		}
		h := sha256.New()
		edited := editLayout(p.test.Test, seed).Rects(iccad.DefaultLayer)
		fmt.Fprint(h, edited[len(edited)-1])
		for _, rq := range r.reqs {
			h.Write(rq.Body)
		}
		inputs = append(inputs, hex.EncodeToString(h.Sum(nil)))
		reports = append(reports, p.digest)
	}
	if inputs[0] != inputs[1] || reports[0] != reports[1] {
		t.Error("the same seed gave different inputs or reports")
	}
	if inputs[0] == inputs[2] {
		t.Error("a different seed gave the same inputs")
	}
}

// TestRescanMatchesColdScan checks the re-scan the benchmark times: after
// the seeded edit, the incremental re-scan through the tile store reports
// exactly what a cold scan of the edited layout reports, and evaluates
// only the edited tile.
func TestRescanMatchesColdScan(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and trains a benchmark")
	}
	w := small(workloads[1])
	w.TestScale = 0.5
	train, err := trainingSet(w, "unknown")
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.Train(train, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := testConfig(w)
	if err != nil {
		t.Fatal(err)
	}
	l := iccad.Generate(cfg).Test
	path := filepath.Join(t.TempDir(), "store.jsonl")
	ctx := context.Background()
	if _, _, err := det.ScanIncrementalContext(ctx, l, path, core.ScanOptions{}); err != nil {
		t.Fatal(err)
	}
	edited := editLayout(l, 9)
	if edited.NumRects() != l.NumRects()+1 {
		t.Fatalf("edit added %d rects", edited.NumRects()-l.NumRects())
	}
	got, stats, err := det.ScanIncrementalContext(ctx, edited, path, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := det.ScanTiledContext(ctx, edited, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reportDigest(got.Hotspots) != reportDigest(want.Hotspots) ||
		got.Candidates != want.Candidates || got.Flagged != want.Flagged || got.Reclaimed != want.Reclaimed {
		t.Errorf("re-scan %d/%d/%d/%d, cold scan %d/%d/%d/%d (hotspots/candidates/flagged/reclaimed)",
			len(got.Hotspots), got.Candidates, got.Flagged, got.Reclaimed,
			len(want.Hotspots), want.Candidates, want.Flagged, want.Reclaimed)
	}
	if stats.TilesDirty != 1 || stats.TilesCached != stats.TilesTotal-1 {
		t.Errorf("re-scan dirtied %d and served %d of %d tiles, want exactly the edited one dirty",
			stats.TilesDirty, stats.TilesCached, stats.TilesTotal)
	}
}

// TestAttributionCheck covers the rule that no remainder is hidden.
func TestAttributionCheck(t *testing.T) {
	ok := attribute("scan", 10*time.Millisecond, []call{{Name: "a", Wall: 4 * time.Millisecond}, {Name: "b", Wall: 5 * time.Millisecond}})
	if err := ok.check(); err != nil {
		t.Errorf("disjoint parts: %v", err)
	}
	if got := ok.Unattributed; got < 0.00099 || got > 0.00101 {
		t.Errorf("unattributed = %v, want 1ms", got)
	}
	double := attribute("scan", 10*time.Millisecond, []call{{Name: "a", Wall: 8 * time.Millisecond}, {Name: "b", Wall: 8 * time.Millisecond}})
	if err := double.check(); err == nil {
		t.Error("double-counted parts passed the check")
	}
}

// TestFailsOnBadArguments checks that the benchmark exits non-zero without a
// result line when it cannot run the asked workload.
func TestFailsOnBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
