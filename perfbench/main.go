// Command perfbench is the repository's end-to-end benchmark: one process
// that drives the public functions of every layer (iccad generation,
// training, tiled and incremental scans, and an in-process hotspotd) on
// generated inputs, checks their outputs, and prints the metrics named in
// BENCHMARK.json at the repository root.
//
// Run it from the repository root through the wrapper, which builds it from
// the checkout's sources:
//
//	bash perfbench/run.sh --workload scan-chip --seed 1 --seconds 8 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --seconds is
// how long its serve step runs request lists. --trace 1 runs the session
// untraced and then traced (fresh obs registries on the detectors and the
// server, the benchmark's spans kept in memory), prints the per-layer metrics,
// checks that stages plus unattributed rows account for every step's wall
// time, and writes the spans to .bench_out/. --sweep prints a report-only
// scaling curve of the scan-chip scan instead.
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"hotspot/internal/simd"
)

// outDir holds run scratch (tile stores) and trace files, relative to the
// working directory (the checkout root).
const outDir = ".bench_out"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed: testing layout, edit position and request order")
	seconds := fs.Int("seconds", 8, "how long the serve step runs request lists")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: traced per-layer metrics")
	sweep := fs.Bool("sweep", false, "print the report-only scan scaling curve instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sweep {
		if err := runSweep(context.Background(), *seed, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := benchmark(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// benchmark runs workload w once and returns its result: the end-to-end
// metrics of an untraced session, or with traced set the per-layer metrics
// of a traced session checked against an untraced one. Progress and the
// run metadata go to log.
func benchmark(ctx context.Context, w workload, seed int64, seconds time.Duration, traced bool, log io.Writer) (result, error) {
	start := time.Now()
	meta := runMeta(seed)
	if b, err := json.Marshal(meta); err == nil {
		fmt.Fprintf(log, "meta %s\n", b)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	r := &run{w: w, seed: seed, dir: dir}
	t := time.Now()
	if r.train, err = trainingSet(w, meta.Source); err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "setup training set %d clips %.3fs\n", len(r.train), time.Since(t).Seconds())

	values := map[string]float64{}
	if !traced {
		p := newPass(r, false, seconds)
		if err := p.run(ctx); err != nil {
			return result{}, err
		}
		for _, s := range p.steps {
			fmt.Fprintf(log, "step %-7s %9.3fs\n", s.Name, s.Wall.Seconds())
		}
		endToEndValues(p, values)
		values["setup_s"] = (time.Since(start) - p.timed).Seconds()
		values["peak_rss_mb"] = peakRSSMB()
	} else {
		untraced := newPass(r, false, 0)
		if err := untraced.run(ctx); err != nil {
			return result{}, err
		}
		tp := newPass(r, true, 0)
		if err := tp.run(ctx); err != nil {
			return result{}, err
		}
		if untraced.digest != tp.digest {
			r.fail("untraced and traced runs report different hotspots (%s vs %s)", untraced.digest[:12], tp.digest[:12])
		}
		det, err := tracedDetect(ctx, tp)
		if err != nil {
			return result{}, err
		}
		for _, a := range tp.attr {
			if err := a.check(); err != nil {
				r.fail("attribution: %v", err)
			}
			fmt.Fprintf(log, "attribution %-14s wall %9.3fs unattributed %8.4fs\n", a.Step, a.Wall, a.Unattributed)
		}
		layerValues(untraced, tp, det, values)
		if err := writeTrace(w, seed, meta, tp, values); err != nil {
			return result{}, err
		}
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(log, "problem:", p)
	}
	return res, nil
}

// endToEndValues fills the user-visible metrics of an untraced pass.
func endToEndValues(p *pass, v map[string]float64) {
	for _, s := range p.steps {
		if s.Name != "serve" {
			v[s.Name+"_s"] = s.Wall.Seconds()
		}
	}
	v["hits"] = float64(p.hits)
	v["extras"] = float64(p.extras)
	var detect, scans []time.Duration
	var wall time.Duration
	clips := 0
	for _, l := range p.lists {
		detect = append(detect, l.DetectLat...)
		scans = append(scans, l.ScanLat...)
		wall += l.Wall
		clips += l.Clips
	}
	v["detect_p50_ms"] = ms(percentile(detect, 0.50))
	v["detect_p90_ms"] = ms(percentile(detect, 0.90))
	v["detect_clips_per_s"] = float64(clips) / wall.Seconds()
	v["scanreq_p50_ms"] = ms(percentile(scans, 0.50))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile reads the q-quantile by the nearest-rank method (0 when
// empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// peakRSSMB is the process's peak resident set (getrusage maxrss, KiB on
// Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// traceFile is what a traced run writes to .bench_out/.
type traceFile struct {
	Workload    string             `json:"workload"`
	Meta        meta               `json:"meta"`
	Tolerance   string             `json:"attribution_tolerance"`
	Attribution []attribution      `json:"attribution"`
	Metrics     map[string]float64 `json:"metrics"`
	Spans       []spanRecord       `json:"spans"`
}

func writeTrace(w workload, seed int64, m meta, tp *pass, values map[string]float64) error {
	tf := traceFile{
		Workload: w.Name, Meta: m, Tolerance: attributionTol.String(),
		Attribution: tp.attr, Metrics: values, Spans: tp.tr.snapshot(),
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.Name, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// meta is recorded with every result: enough to say what was measured
// where.
type meta struct {
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	// SIMD is the kernel dispatch in use; HOTSPOT_NOSIMD=1 forces
	// "portable".
	SIMD string `json:"simd"`
	Seed int64  `json:"seed"`
}

func runMeta(seed int64) meta {
	return meta{
		Commit:     buildCommit(),
		Source:     sourceDigest(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		SIMD:       simd.Active(),
		Seed:       seed,
	}
}
