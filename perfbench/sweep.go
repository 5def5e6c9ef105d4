package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"hotspot/internal/core"
	"hotspot/internal/iccad"
)

// sweepScales are the testing-layout scales of the report-only sweep.
var sweepScales = []float64{0.25, 0.5, 0.75, 1}

// sweepPoint is one point of the scan scaling curve.
type sweepPoint struct {
	Scale      float64 `json:"scale"`
	Rects      int     `json:"rects"`
	Candidates int     `json:"candidates"`
	ScanS      float64 `json:"scan_s"`
	USPerClip  float64 `json:"us_per_candidate"`
}

// runSweep times the scan-chip scan (a freshly loaded detector scanning
// into an empty tile store) at each sweep scale, with scan-chip's model,
// and prints scan_s against candidates. It is not gated.
func runSweep(ctx context.Context, seed int64, out io.Writer) error {
	w, _ := findWorkload("scan-chip")
	train, err := trainingSet(w, sourceDigest())
	if err != nil {
		return err
	}
	trained, err := core.Train(train, core.DefaultConfig())
	if err != nil {
		return err
	}
	var model bytes.Buffer
	if err := trained.Save(&model); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var points []sweepPoint
	for i, scale := range sweepScales {
		w.TestScale = scale
		cfg, err := testConfig(w)
		if err != nil {
			return err
		}
		b := iccad.Generate(cfg)
		det, err := core.Load(bytes.NewReader(model.Bytes()))
		if err != nil {
			return err
		}
		st, err := det.OpenStore(filepath.Join(dir, fmt.Sprintf("store-%d.jsonl", i)))
		if err != nil {
			return err
		}
		start := time.Now()
		rep, _, err := det.ScanTiledContext(ctx, b.Test, core.ScanOptions{Store: st})
		wall := time.Since(start)
		st.Close()
		if err != nil {
			return err
		}
		pt := sweepPoint{Scale: scale, Rects: b.Test.NumRects(), Candidates: rep.Candidates,
			ScanS: wall.Seconds(), USPerClip: ratio(float64(wall.Microseconds()), float64(rep.Candidates))}
		fmt.Fprintf(out, "scale %.2f  rects %6d  candidates %6d  scan %7.3fs  %6.1f us/candidate\n",
			pt.Scale, pt.Rects, pt.Candidates, pt.ScanS, pt.USPerClip)
		points = append(points, pt)
	}
	b, err := json.Marshal(struct {
		Meta  meta         `json:"meta"`
		Sweep []sweepPoint `json:"sweep"`
	}{runMeta(seed), points})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	return nil
}
