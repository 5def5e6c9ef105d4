package main

import (
	"fmt"
	"sync"
	"time"

	"hotspot/internal/obs"
)

// attributionTol is the stated tolerance of the attribution check: a step's
// named parts may exceed its wall time by at most this much (clock reads
// around nested calls), and its printed rows must sum to the wall time
// within it.
const attributionTol = time.Millisecond

// spanRecord is one span the benchmark owns. Times are offsets from the
// start of the traced pass; Parent is 0 for a step.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory until the run writes them
// out. A nil tracer (untraced runs) records nothing. Safe for concurrent use:
// the serve step's client goroutines record request spans.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent and returns its ID (0 on a nil tracer).
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRecord{ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(t.t0))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

// call is one benchmark call into the program inside a step: its span's
// wall time and the pipeline stages the program reported for it.
type call struct {
	Name   string
	Wall   time.Duration
	Stages []obs.StageStats
}

// part is one attribution row.
type part struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// attribution splits one step's wall time into the program's stages, the
// benchmark's call spans that have no stages, and the unattributed
// remainder.
type attribution struct {
	Step         string  `json:"step"`
	Wall         float64 `json:"wall_s"`
	Parts        []part  `json:"parts"`
	Unattributed float64 `json:"unattributed_s"`
}

// attribute builds a step's attribution from its calls. A call with stages
// contributes one row per stage plus its own unattributed share (the call's
// wall minus its stages); a call without stages contributes its wall.
func attribute(step string, wall time.Duration, calls []call) attribution {
	a := attribution{Step: step, Wall: wall.Seconds()}
	claimed := time.Duration(0)
	for _, c := range calls {
		if len(c.Stages) == 0 {
			a.Parts = append(a.Parts, part{c.Name, c.Wall.Seconds()})
			claimed += c.Wall
			continue
		}
		for _, s := range c.Stages {
			a.Parts = append(a.Parts, part{s.Name, s.Duration.Seconds()})
			claimed += s.Duration
		}
	}
	a.Unattributed = (wall - claimed).Seconds()
	return a
}

// check verifies that no remainder is hidden: the named parts do not exceed
// the wall time (no double counting), and parts plus the unattributed row
// sum to the wall time within attributionTol.
func (a attribution) check() error {
	tol := attributionTol.Seconds()
	if a.Unattributed < -tol {
		return fmt.Errorf("step %s: named parts exceed wall time %.6fs by %.6fs", a.Step, a.Wall, -a.Unattributed)
	}
	sum := a.Unattributed
	for _, p := range a.Parts {
		sum += p.Seconds
	}
	if d := sum - a.Wall; d > tol || d < -tol {
		return fmt.Errorf("step %s: rows sum to %.6fs, wall time is %.6fs", a.Step, sum, a.Wall)
	}
	return nil
}

// stageSeconds sums the named stages' durations.
func stageSeconds(stages []obs.StageStats, names ...string) float64 {
	total := 0.0
	for _, s := range stages {
		for _, n := range names {
			if s.Name == n {
				total += s.Duration.Seconds()
			}
		}
	}
	return total
}
