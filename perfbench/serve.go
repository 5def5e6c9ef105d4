package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/core"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
	"hotspot/internal/server"
)

// Serve-step shape: 32-clip /v1/detect batches (a seeded sample of at most
// maxDetectReqs of them, about 5,700 clips) plus the central square of the
// layout, of side at most maxScanRegion dbu, cut 4x4 into /v1/scan
// windows, in seeded order, worked through by `clients` closed-loop
// clients.
const (
	detectBatch   = 32
	maxDetectReqs = 178
	scanCuts      = 4
	maxScanRegion = 60000
	clients       = 2
)

// request is one pre-encoded request with its expected answer.
type request struct {
	Path  string // "/v1/detect" or "/v1/scan"
	Body  []byte
	Clips int
	// Want are the in-process ClassifyBatch labels of a detect request;
	// WantDigest is the in-process Detect digest of a scan window.
	Want       []clip.Label
	WantDigest string
}

// buildRequests extracts the layout's clips, encodes the request list in
// seeded order, and computes every expected answer in process with det.
func buildRequests(l *layout.Layout, det *core.Detector, seed int64) ([]request, error) {
	cfg := det.Config()
	rng := rand.New(rand.NewSource(seed))

	req := cfg.Requirements
	gb := l.GeometryBounds()
	req.SnapBase = geom.Pt(gb.X0, gb.Y0)
	cands := clip.ExtractParallel(l, cfg.Layer, cfg.Spec, req, cfg.Workers)
	batches := rng.Perm((len(cands) + detectBatch - 1) / detectBatch)
	batches = batches[:min(len(batches), maxDetectReqs)]

	var reqs []request
	var all []*clip.Pattern
	for _, bi := range batches {
		var b []*clip.Pattern
		for _, c := range cands[bi*detectBatch : min((bi+1)*detectBatch, len(cands))] {
			b = append(b, clip.FromLayout(l, cfg.Layer, cfg.Spec, c.At, 0))
		}
		var body bytes.Buffer
		if err := clip.WriteSet(&body, b); err != nil {
			return nil, fmt.Errorf("encoding detect batch: %w", err)
		}
		reqs = append(reqs, request{Path: "/v1/detect", Body: body.Bytes(), Clips: len(b)})
		all = append(all, b...)
	}
	labels := det.ClassifyBatch(all)
	off := 0
	for i := range reqs {
		reqs[i].Want = labels[off : off+reqs[i].Clips]
		off += reqs[i].Clips
	}

	b := l.Bounds
	side := min(geom.Coord(maxScanRegion), b.W(), b.H())
	x0 := b.X0 + (b.W()-side)/2
	y0 := b.Y0 + (b.H()-side)/2
	cut := side / scanCuts
	for i := 0; i < scanCuts; i++ {
		for j := 0; j < scanCuts; j++ {
			win := geom.R(x0+geom.Coord(i)*cut, y0+geom.Coord(j)*cut, x0+geom.Coord(i+1)*cut, y0+geom.Coord(j+1)*cut)
			rects := l.QueryClipped(cfg.Layer, win, nil)
			if len(rects) == 0 {
				continue
			}
			// The server rebuilds exactly this layout from the posted soup.
			wl := layout.New("scan")
			body := struct {
				Rects [][4]geom.Coord `json:"rects"`
			}{}
			for _, rc := range rects {
				wl.AddRect(cfg.Layer, rc)
				body.Rects = append(body.Rects, [4]geom.Coord{rc.X0, rc.Y0, rc.X1, rc.Y1})
			}
			enc, err := json.Marshal(body)
			if err != nil {
				return nil, fmt.Errorf("encoding scan window: %w", err)
			}
			rep := det.Detect(wl)
			reqs = append(reqs, request{Path: "/v1/scan", Body: enc, WantDigest: reportDigest(rep.Hotspots)})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// liveServer is an in-process hotspotd on a loopback listener.
type liveServer struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

// startServer serves det with the given registry (nil: the server makes
// its own) until stop.
func startServer(det *core.Detector, reg *obs.Registry) (*liveServer, error) {
	srv, err := server.NewWithDetector(det, server.Config{Obs: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &liveServer{url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ctx, ln) }()
	return s, nil
}

// stop drains the server and waits for Serve to return.
func (s *liveServer) stop() error {
	s.cancel()
	return <-s.done
}

// listResult is one request list's outcome.
type listResult struct {
	Wall      time.Duration
	DetectLat []time.Duration
	ScanLat   []time.Duration
	Clips     int // clips classified by successful detect requests
	// Lanes is each client's wall time and request spans, for attribution.
	Lanes []attribution
}

// runList works through reqs with `clients` closed-loop clients over at
// most `clients` connections. Every request counts as attempted; a non-200
// status or a transport error counts as failed; a wrong answer is a
// correctness problem.
func (p *pass) runList(ctx context.Context, url string, reqs []request) listResult {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Minute}

	listID := p.tr.start(p.cur, "serve.list")
	var mu sync.Mutex
	var res listResult
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	lanes := make([]attribution, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var calls []call
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					break
				}
				rq := reqs[i]
				id := p.tr.start(listID, "POST "+rq.Path)
				t := time.Now()
				status, body, err := post(ctx, hc, url+rq.Path, rq.Body)
				lat := time.Since(t)
				p.tr.end(id)
				calls = append(calls, call{Name: "POST " + rq.Path, Wall: lat})
				mu.Lock()
				p.r.attempted++
				switch {
				case err != nil:
					p.r.failed++
					p.r.fail("%s: %v", rq.Path, err)
				case status != http.StatusOK:
					p.r.failed++
					p.r.fail("%s: status %d: %s", rq.Path, status, bytes.TrimSpace(body))
				case rq.Path == "/v1/detect":
					res.DetectLat = append(res.DetectLat, lat)
					res.Clips += rq.Clips
					checkDetect(p.r, body, rq.Want)
				default:
					res.ScanLat = append(res.ScanLat, lat)
					checkScan(p.r, body, rq.WantDigest)
				}
				mu.Unlock()
			}
			lanes[c] = attribute(fmt.Sprintf("serve.client%d", c+1), time.Since(start), mergeCalls(calls))
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	p.tr.end(listID)
	res.Lanes = lanes
	return res
}

// mergeCalls sums calls of the same name into one row each.
func mergeCalls(calls []call) []call {
	var out []call
	for _, c := range calls {
		i := slices.IndexFunc(out, func(o call) bool { return o.Name == c.Name })
		if i < 0 {
			out = append(out, call{Name: c.Name})
			i = len(out) - 1
		}
		out[i].Wall += c.Wall
	}
	return out
}

func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// checkDetect compares served labels with the in-process ClassifyBatch
// labels of the same clips.
func checkDetect(r *run, body []byte, want []clip.Label) {
	var resp struct {
		Labels []clip.Label `json:"labels"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		r.fail("decoding /v1/detect response: %v", err)
		return
	}
	if !slices.Equal(resp.Labels, want) {
		r.fail("/v1/detect labels differ from in-process ClassifyBatch")
	}
}

// checkScan compares a served window report with the in-process Detect of
// the same window.
func checkScan(r *run, body []byte, want string) {
	var resp struct {
		Report struct {
			Hotspots []geom.Rect `json:"hotspots"`
		} `json:"report"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		r.fail("decoding /v1/scan response: %v", err)
		return
	}
	if got := reportDigest(resp.Report.Hotspots); got != want {
		r.fail("/v1/scan report differs from in-process Detect")
	}
}

// serve runs request lists until serveFor has passed (at least one), each
// against a freshly loaded detector behind a fresh in-process server, so
// the verdict memo's hit rate is the list's own repetition. The server's
// bring-up and shutdown are untimed; each list is one timed "serve" step.
func (p *pass) serve(ctx context.Context) error {
	r := p.r
	start := time.Now()
	for first := true; first || time.Since(start) < p.serveFor; first = false {
		reg := p.reg("serve")
		det, _, err := p.load(reg)
		if err != nil {
			return err
		}
		id := p.tr.start(0, "server.start")
		srv, err := startServer(det, reg)
		p.tr.end(id)
		if err != nil {
			return err
		}
		var res listResult
		wall, err := p.step("serve", func() error {
			res = p.runList(ctx, srv.url, r.reqs)
			return nil
		})
		p.steps = append(p.steps, stepTime{"serve", wall})
		id = p.tr.start(0, "server.stop")
		if serr := srv.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stopping server: %w", serr)
		}
		p.tr.end(id)
		if err != nil {
			return err
		}
		p.lists = append(p.lists, res)
		if p.tr != nil {
			// A list's clients run side by side, so its step is attributed
			// per client lane.
			p.attr = slices.Delete(p.attr, len(p.attr)-1, len(p.attr))
			p.attr = append(p.attr, res.Lanes...)
		}
	}
	return nil
}
