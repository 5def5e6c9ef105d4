package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/core"
	"hotspot/internal/geom"
	"hotspot/internal/iccad"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
	"hotspot/internal/scan"
)

// workload is one benchmark input set. Every workload runs the same
// session of user-visible operations (gen, train, scan, re-scan, serve);
// the inputs decide which layers dominate.
//
// The generated inputs come from the iccad suite entry's own seed, so they
// are the same in every run; the run's seed picks the edit, the served clip
// sample and the request order. Seeding generation instead moved gen_s by
// up to 25% (motifs are labelled in 128-motif batches until enough are
// accepted), and train_s, scan_s and extras by up to 3x, between seeds:
// more than any bound a regression gate can use.
type workload struct {
	Name string
	// Bench is the iccad suite entry the inputs are generated from.
	Bench string
	// TrainScale sizes the training clip set, TestScale the testing
	// layout.
	TrainScale, TestScale float64
	// Store scans into a tile result store and re-scans incrementally;
	// without it the re-scan is a plain tiled scan of the edited layout.
	Store bool
}

var workloads = []workload{
	{Name: "train-dense", Bench: "MX_benchmark2", TrainScale: 0.2, TestScale: 0.2},
	{Name: "scan-chip", Bench: "MX_benchmark1", TrainScale: 0.5, TestScale: 0.75, Store: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// editSide is the side of the seeded rectangle the re-scan adds (dbu).
const editSide = 40

// run is one benchmark invocation: the fixed inputs shared by its passes
// and the tallies every pass adds to.
type run struct {
	w     workload
	seed  int64
	dir   string // scratch directory for tile stores
	files int    // scratch files handed out
	train []*clip.Pattern
	// reqs is the serve request list with its expected answers, built on
	// first use and shared by every pass (the inputs do not change).
	reqs []request

	attempted, failed int
	problems          []string
}

// fail records an output that did not check out.
func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// scratch returns a fresh file path in the run's scratch directory.
func (r *run) scratch(prefix string) string {
	r.files++
	return filepath.Join(r.dir, fmt.Sprintf("%s-%d", prefix, r.files))
}

// suiteConfig returns the workload's iccad suite entry at the given scale.
func suiteConfig(w workload, scale float64) (iccad.Config, error) {
	cfg, ok := iccad.ConfigByName(w.Bench)
	if !ok {
		return cfg, fmt.Errorf("unknown iccad benchmark %q", w.Bench)
	}
	cfg.Scale = scale
	return cfg, nil
}

// trainingSet returns the workload's training clip set, generated with
// the testing layout left empty. The set depends only on the program, so
// it is cached under .bench_out/fixtures keyed by the measured sources
// (source, see sourceDigest): the first run of a checkout generates it.
func trainingSet(w workload, source string) ([]*clip.Pattern, error) {
	cfg, err := suiteConfig(w, w.TrainScale)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "fixtures", fmt.Sprintf("%s-%g-%.16s.json", w.Bench, w.TrainScale, source))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		return clip.ReadSet(f)
	}
	cfg.W, cfg.H, cfg.TestHS = 0, 0, 0
	train := iccad.Generate(cfg).Train
	if len(train) == 0 {
		return nil, errors.New("empty training clip set")
	}
	if source == "unknown" {
		return train, nil
	}
	var buf bytes.Buffer
	if err := clip.WriteSet(&buf, train); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	// Write-then-rename, so a killed run never leaves a torn fixture.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return train, os.Rename(tmp, path)
}

// testConfig is the testing-layout generation (no training clips).
func testConfig(w workload) (iccad.Config, error) {
	cfg, err := suiteConfig(w, w.TestScale)
	cfg.TrainHS, cfg.TrainNHS = 0, 0
	return cfg, err
}

// stepTime is the wall time of one timed step.
type stepTime struct {
	Name string
	Wall time.Duration
}

// pass runs the session once. An untraced pass has a nil tracer and no
// registries; a traced pass gives every timed step a fresh obs.Registry and
// records the benchmark's spans.
type pass struct {
	r        *run
	tr       *tracer
	serveFor time.Duration // serve lists until this much time has passed

	steps []stepTime    // one per step; the median of repeated steps
	timed time.Duration // wall time of every timed step and repetition
	attr  []attribution
	cur   int // span of the running step
	calls []call
	// regs are the traced pass's per-step registries.
	regs map[string]*obs.Registry

	test         *iccad.Benchmark
	model        []byte
	coldRep      core.Report
	hits, extras int
	digest       string
	lists        []listResult

	// Traced-pass inputs of the per-layer metrics.
	stepCalls                   map[string][]call
	loadWall                    time.Duration
	scanMallocs, scanAllocBytes uint64 // runtime.MemStats deltas over the scan step
	rescanStats                 core.ScanStats
}

func newPass(r *run, traced bool, serveFor time.Duration) *pass {
	p := &pass{r: r, serveFor: serveFor}
	if traced {
		p.tr = newTracer()
		p.regs = map[string]*obs.Registry{}
		p.stepCalls = map[string][]call{}
	}
	return p
}

// reg returns the step's fresh registry in a traced pass, nil otherwise.
func (p *pass) reg(step string) *obs.Registry {
	if p.regs == nil {
		return nil
	}
	if p.regs[step] == nil {
		p.regs[step] = obs.NewRegistry()
	}
	return p.regs[step]
}

// step times one user-visible operation and returns its wall time. Every
// step counts as attempted; an error counts it as failed and ends the pass.
func (p *pass) step(name string, f func() error) (time.Duration, error) {
	p.cur = p.tr.start(0, "step."+name)
	p.calls = nil
	start := time.Now()
	err := f()
	wall := time.Since(start)
	p.tr.end(p.cur)
	p.cur = 0
	p.timed += wall
	p.r.attempted++
	if err != nil {
		p.r.failed++
		return wall, fmt.Errorf("%s: %w", name, err)
	}
	if p.tr != nil {
		p.attr = append(p.attr, attribute(name, wall, p.calls))
		p.stepCalls[name] = p.calls
	}
	return wall, nil
}

// call runs one call into the program under a benchmark span. f returns the
// pipeline stages the program reported for the call (nil if none).
func (p *pass) call(name string, f func() []obs.StageStats) {
	id := p.tr.start(p.cur, name)
	start := time.Now()
	stages := f()
	wall := time.Since(start)
	p.tr.end(id)
	p.calls = append(p.calls, call{Name: name, Wall: wall, Stages: stages})
}

// load decodes the saved model into a fresh detector (empty verdict memo),
// as `hotspot scan -model` does. It is untimed set-up work.
func (p *pass) load(reg *obs.Registry) (*core.Detector, time.Duration, error) {
	id := p.tr.start(0, "core.Load")
	start := time.Now()
	det, err := core.Load(bytes.NewReader(p.model))
	wall := time.Since(start)
	p.tr.end(id)
	if err != nil {
		return nil, wall, fmt.Errorf("loading model: %w", err)
	}
	det.SetObs(reg)
	return det, wall, nil
}

// prepareStages are the stages core.Prepare emits; Prepared.Train copies
// them into the detector's telemetry ahead of its own.
var prepareStages = map[string]bool{
	"train.upsample": true, "train.classify.nonhotspot": true,
	"train.downsample": true, "train.classify.hotspot": true,
}

// Every timed step of an untraced pass repeats until its repetitions have
// measured minStepWall, at most maxReps times, and reports the median: one
// short step is at the mercy of a noisy neighbour, a median of a few is not.
// Traced passes run each step once.
const (
	minStepWall = 4 * time.Second
	maxReps     = 3
)

// repeat runs f under the repetition rule. Each repetition does its
// untimed set-up and checks itself, and times the step by calling timed
// once.
func (p *pass) repeat(name string, f func(rep int, timed func(func() error) error) error) error {
	var walls []time.Duration
	total := time.Duration(0)
	for rep := 0; ; rep++ {
		err := f(rep, func(step func() error) error {
			wall, err := p.step(name, step)
			walls = append(walls, wall)
			total += wall
			return err
		})
		if err != nil {
			return err
		}
		if p.tr != nil || rep+1 >= maxReps || total >= minStepWall {
			break
		}
	}
	p.steps = append(p.steps, stepTime{name, medianDuration(walls)})
	return nil
}

func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// same records a correctness problem when a repetition's output (by
// digest) differs from the first repetition's.
func (p *pass) same(what string, rep int, first *string, got string) {
	if rep == 0 {
		*first = got
	} else if got != *first {
		p.r.fail("%s differs between repetitions of the same input", what)
	}
}

// run executes gen, train, scan, re-scan and serve.
func (p *pass) run(ctx context.Context) error {
	r := p.r
	w := r.w
	tcfg, err := testConfig(w)
	if err != nil {
		return err
	}
	var layoutDigest string
	if err := p.repeat("gen", func(rep int, timed func(func() error) error) error {
		if err := timed(func() error {
			p.call("iccad.Generate", func() []obs.StageStats {
				p.test = iccad.Generate(tcfg)
				return nil
			})
			return nil
		}); err != nil {
			return err
		}
		if p.test.Test.NumRects() == 0 || len(p.test.TruthCores) == 0 {
			return errors.New("gen: empty testing layout")
		}
		p.same("generated layout", rep, &layoutDigest, reportDigest(p.test.Test.Rects(iccad.DefaultLayer), p.test.TruthCores))
		return nil
	}); err != nil {
		return err
	}

	var det *core.Detector
	var modelDigest string
	if err := p.repeat("train", func(rep int, timed func(func() error) error) error {
		cfg := core.DefaultConfig()
		cfg.Obs = p.reg("train")
		if err := timed(func() error {
			var prep *core.Prepared
			var err error
			p.call("core.Prepare", func() []obs.StageStats {
				prep, err = core.Prepare(r.train, cfg)
				return nil
			})
			if err != nil {
				return err
			}
			p.call("core.Prepared.Train", func() []obs.StageStats {
				det, err = prep.Train()
				return nil
			})
			if err != nil {
				return err
			}
			// The detector's telemetry repeats Prepare's stages ahead of
			// its own; credit each stage to its call.
			tel := det.Telemetry()
			for _, s := range tel.Stages {
				i := 1
				if prepareStages[s.Name] {
					i = 0
				}
				p.calls[i].Stages = append(p.calls[i].Stages, s)
			}
			return nil
		}); err != nil {
			return err
		}
		p.same("trained model", rep, &modelDigest, det.ModelDigest())
		return nil
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		return fmt.Errorf("saving model: %w", err)
	}
	p.model = buf.Bytes()

	// Cold scans of the whole layout, each by a freshly loaded detector
	// into an empty store.
	var scanDet *core.Detector
	var storePath, scanDigest string
	if err := p.repeat("scan", func(rep int, timed func(func() error) error) error {
		var err error
		if scanDet, p.loadWall, err = p.load(p.reg("scan")); err != nil {
			return err
		}
		if scanDet.ModelDigest() != modelDigest {
			r.fail("model digest changed across save/load")
		}
		storePath = r.scratch("store")
		var ms0, ms1 runtime.MemStats
		if p.tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		if err := timed(func() error {
			opts := core.ScanOptions{}
			if w.Store {
				if opts.Store, err = p.openStore(scanDet, storePath); err != nil {
					return err
				}
			}
			p.call("core.ScanTiledContext", func() []obs.StageStats {
				p.coldRep, _, err = scanDet.ScanTiledContext(ctx, p.test.Test, opts)
				return p.coldRep.Telemetry.Stages
			})
			if opts.Store != nil {
				p.call("scan.Store.Close", func() []obs.StageStats { opts.Store.Close(); return nil })
			}
			return err
		}); err != nil {
			return err
		}
		if p.tr != nil {
			runtime.ReadMemStats(&ms1)
			p.scanMallocs = ms1.Mallocs - ms0.Mallocs
			p.scanAllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		}
		p.same("scan report", rep, &scanDigest, reportDigest(p.coldRep.Hotspots))
		return nil
	}); err != nil {
		return err
	}
	score := core.EvaluateReport(p.coldRep.Hotspots, p.test.TruthCores, p.test.Test.Area(), p.test.Spec)
	p.hits, p.extras = score.Hits, score.Extras
	if p.coldRep.Candidates == 0 {
		r.fail("scan extracted no candidates")
	}
	if 2*score.Hits < score.Actual {
		r.fail("scan found %d of %d actual hotspots (below the 50%% floor)", score.Hits, score.Actual)
	}
	var coldStore []byte
	if w.Store {
		if coldStore, err = os.ReadFile(storePath); err != nil {
			return fmt.Errorf("reading tile store: %w", err)
		}
	}

	// The serve requests' expected answers come from the scan's detector:
	// its verdict memo is warm with this layout, which makes them cheap, and
	// the served detectors start cold, so a memo that changed a verdict
	// would show as a mismatch.
	if r.reqs == nil {
		if r.reqs, err = buildRequests(p.test.Test, scanDet, r.seed); err != nil {
			return err
		}
	}

	// Re-scans after one seeded edit, each by a freshly loaded detector
	// against a copy of the cold scan's store.
	edited := editLayout(p.test.Test, r.seed)
	var rescanRep core.Report
	var rescanDigest string
	if err := p.repeat("rescan", func(rep int, timed func(func() error) error) error {
		det, _, err := p.load(p.reg("rescan"))
		if err != nil {
			return err
		}
		if w.Store {
			storePath = r.scratch("store")
			if err := os.WriteFile(storePath, coldStore, 0o644); err != nil {
				return fmt.Errorf("copying tile store: %w", err)
			}
		}
		if err := timed(func() error {
			if !w.Store {
				p.call("core.ScanTiledContext", func() []obs.StageStats {
					rescanRep, p.rescanStats, err = det.ScanTiledContext(ctx, edited, core.ScanOptions{})
					return rescanRep.Telemetry.Stages
				})
				return err
			}
			st, err := p.openStore(det, storePath)
			if err != nil {
				return err
			}
			p.call("core.ScanIncrementalContext", func() []obs.StageStats {
				rescanRep, p.rescanStats, err = det.ScanIncrementalContext(ctx, edited, storePath, core.ScanOptions{Store: st})
				return rescanRep.Telemetry.Stages
			})
			p.call("scan.Store.Close", func() []obs.StageStats { st.Close(); return nil })
			return err
		}); err != nil {
			return err
		}
		if s := p.rescanStats; w.Store && (s.TilesDirty < 1 || s.TilesCached+s.TilesDirty != s.TilesTotal) {
			r.fail("re-scan tiles: %d dirty + %d cached of %d", s.TilesDirty, s.TilesCached, s.TilesTotal)
		}
		p.same("re-scan report", rep, &rescanDigest, reportDigest(rescanRep.Hotspots))
		return nil
	}); err != nil {
		return err
	}
	p.digest = reportDigest(p.coldRep.Hotspots, rescanRep.Hotspots)

	return p.serve(ctx)
}

// openStore opens a tile result store under a benchmark span.
func (p *pass) openStore(det *core.Detector, path string) (*scan.Store, error) {
	var st *scan.Store
	var err error
	p.call("core.OpenStore", func() []obs.StageStats {
		st, err = det.OpenStore(path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("opening tile store: %w", err)
	}
	return st, nil
}

// editLayout copies l and adds one editSide square at a seeded position at
// least a tile halo away from every tile seam, so the re-scan dirties one
// tile (tiles use the default side, as the scan does).
func editLayout(l *layout.Layout, seed int64) *layout.Layout {
	const layer = iccad.DefaultLayer
	spec := clip.DefaultSpec
	side := geom.Coord(scan.DefaultTileFactor) * spec.ClipSide
	halo := spec.CoreSide + spec.Ambit()
	rng := rand.New(rand.NewSource(seed))
	b := l.Bounds
	// The tile grid starts at the layout bounds' low corner.
	tx := b.X0 + side*geom.Coord(rng.Int63n(int64(max(1, b.W()/side))))
	ty := b.Y0 + side*geom.Coord(rng.Int63n(int64(max(1, b.H()/side))))
	pos := func(lo, hi geom.Coord) geom.Coord {
		lo, hi = lo+halo+1, hi-halo-editSide-1
		if hi <= lo {
			lo, hi = lo-halo-1, hi+halo+1
		}
		return lo + geom.Coord(rng.Int63n(int64(hi-lo)))
	}
	x := pos(tx, min(tx+side, b.X1))
	y := pos(ty, min(ty+side, b.Y1))

	out := layout.New(l.Name + "-edited")
	for _, ly := range l.Layers() {
		for _, rc := range l.Rects(ly) {
			out.AddRect(ly, rc)
		}
	}
	out.Bounds = l.Bounds
	out.AddRect(layer, geom.R(x, y, x+editSide, y+editSide))
	return out
}

// reportDigest hashes the sorted hotspot cores of each report in turn.
func reportDigest(reports ...[]geom.Rect) string {
	h := sha256.New()
	for _, cores := range reports {
		sorted := append([]geom.Rect(nil), cores...)
		sortRects(sorted)
		b, _ := json.Marshal(sorted) // a []geom.Rect always marshals
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortRects(rs []geom.Rect) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.X0 != b.X0 {
			return a.X0 < b.X0
		}
		if a.Y0 != b.Y0 {
			return a.Y0 < b.Y0
		}
		if a.X1 != b.X1 {
			return a.X1 < b.X1
		}
		return a.Y1 < b.Y1
	})
}
