package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hotspot/internal/obs"
)

// TestPrintHistogramsUnits checks the -stats histogram printer: names
// ending in "seconds" print as durations, every other histogram as a
// plain number.
func TestPrintHistogramsUnits(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Histogram("detect.seconds").ObserveDuration(1500 * time.Millisecond)
	reg.Histogram("eval.alloc_bytes_per_clip").Observe(24736.5)
	reg.Histogram("server.batch.size").Observe(3)
	reg.Histogram("train.cv.winner_f1").Observe(0.875)

	var buf bytes.Buffer
	printHistograms(&buf, reg.Snapshot().Histograms)
	lines := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			lines[f[0]] = line
		}
	}
	for name, want := range map[string]string{
		"detect.seconds":            "max=1.5s",
		"eval.alloc_bytes_per_clip": "max=24736.5",
		"server.batch.size":         "max=3",
		"train.cv.winner_f1":        "max=0.875",
	} {
		line, ok := lines[name]
		if !ok {
			t.Fatalf("no line for %s in:\n%s", name, buf.String())
		}
		if !strings.HasSuffix(line, want) {
			t.Errorf("%s: line %q, want suffix %q", name, line, want)
		}
	}
	if _, ok := lines["histograms:"]; !ok {
		t.Errorf("missing histograms header in:\n%s", buf.String())
	}
}
