package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumKernels() != d.NumKernels() {
		t.Fatalf("kernels: %d vs %d", loaded.NumKernels(), d.NumKernels())
	}
	if (loaded.feedback == nil) != (d.feedback == nil) {
		t.Fatal("feedback kernel presence differs")
	}
	// The loaded detector must classify every training pattern identically.
	for i, p := range b.Train {
		want := d.ClassifyPattern(p)
		got := loaded.ClassifyPattern(p)
		if got != want {
			t.Fatalf("pattern %d: loaded %v, original %v", i, got, want)
		}
	}
}

func TestSaveLoadDetectIdentical(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := d.Detect(b.Test)
	c := loaded.Detect(b.Test)
	if len(a.Hotspots) != len(c.Hotspots) {
		t.Fatalf("reports differ: %d vs %d", len(a.Hotspots), len(c.Hotspots))
	}
	for i := range a.Hotspots {
		if a.Hotspots[i] != c.Hotspots[i] {
			t.Fatalf("hotspot %d differs", i)
		}
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage must fail")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("future version must fail")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "kernels": [{"key":"x","svm":{}}]}`)); err == nil {
		t.Fatal("kernel without support vectors must fail")
	}
}

// goldenModelDigest is the ModelDigest of the default-config detector
// trained on testBenchmark(). Training is a pure function of the data and
// the configuration, so any change to it — extraction order, parallel
// fan-out, distance arithmetic — must leave this digest byte-identical.
const goldenModelDigest = "13c80ed00db22db5008fdc81c4fee5f68f296a6a44b50e20404b08f9b63e8b11"

// TestTrainModelDigestAcrossWorkers locks training exactness: the trained
// model is byte-identical at every worker count and equal to the golden
// digest.
func TestTrainModelDigestAcrossWorkers(t *testing.T) {
	b := testBenchmark()
	for _, w := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Workers = w
		d, err := Train(b.Train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.ModelDigest(); got != goldenModelDigest {
			t.Fatalf("workers=%d: model digest %s, want %s", w, got, goldenModelDigest)
		}
	}
}

// TestTrainDeterministic guards against map-iteration nondeterminism in
// training: two trainings of the same data must classify identically
// (the paper's ours_nopara row equals ours).
func TestTrainDeterministic(t *testing.T) {
	b := testBenchmark()
	cfg := DefaultConfig()
	d1, err := Train(b.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Workers = 1 // worker count must not matter either
	d2, err := Train(b.Train, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if d1.NumKernels() != d2.NumKernels() {
		t.Fatalf("kernel count differs: %d vs %d", d1.NumKernels(), d2.NumKernels())
	}
	for i, p := range b.Train {
		if d1.ClassifyPattern(p) != d2.ClassifyPattern(p) {
			t.Fatalf("training pattern %d classified differently", i)
		}
	}
	r1 := d1.Detect(b.Test)
	d2.SetWorkers(cfg.Workers)
	r2 := d2.Detect(b.Test)
	if len(r1.Hotspots) != len(r2.Hotspots) {
		t.Fatalf("reports differ: %d vs %d", len(r1.Hotspots), len(r2.Hotspots))
	}
	for i := range r1.Hotspots {
		if r1.Hotspots[i] != r2.Hotspots[i] {
			t.Fatalf("hotspot %d differs", i)
		}
	}
}
