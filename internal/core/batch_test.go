package core

import (
	"fmt"
	"testing"

	"hotspot/internal/clip"
)

// TestClassifyBatchMatchesScalar pins the production evaluation path to
// the per-clip reference oracle (oracle_test.go): over the whole training
// set (hotspots, nonhotspots, and their shifted derivatives), every clip's
// full verdict — flag, flagging-kernel index, confidence, and kernel
// evaluation count — and every label from ClassifyBatch and ClassifyPattern
// must equal the oracle's, at serial and parallel workers, with the verdict
// memo on and off. Because DecisionBatch is bit-for-bit equal to scalar
// Decision, any divergence here is a routing/feedback bookkeeping bug, not
// numerics.
func TestClassifyBatchMatchesScalar(t *testing.T) {
	b := testBenchmark()
	for name, cfg := range map[string]Config{
		"default": DefaultConfig(),
		"routed": func() Config {
			c := DefaultConfig()
			c.RouteK = 2
			return c
		}(),
		"basic": BasicConfig(),
	} {
		t.Run(name, func(t *testing.T) {
			d := trainedDetector(t, cfg)
			ps := make([]*clip.Pattern, 0, 2*len(b.Train))
			for _, p := range b.Train {
				ps = append(ps, p, p.Shifted(40, -25, nil))
			}
			ocfg := d.config()
			wantV := make([]batchVerdict, len(ps))
			wantL := make([]clip.Label, len(ps))
			for i, p := range ps {
				wantV[i] = d.oracleVerdict(p, ocfg)
				wantL[i] = d.oracleLabel(p, ocfg)
			}
			s := getScratch()
			defer putScratch(s)
			for _, workers := range []int{1, 8} {
				d.SetWorkers(workers)
				for _, memoOff := range []bool{false, true} {
					d.memoDisabled = memoOff
					label := fmt.Sprintf("%s workers=%d memoDisabled=%v", name, workers, memoOff)
					// Two passes: the second replays memoized verdicts.
					for pass := 0; pass < 2; pass++ {
						vs := d.evalBatchScratch(s, ps, d.config())
						for i := range ps {
							if vs[i] != wantV[i] {
								t.Fatalf("%s pass %d: clip %d: verdict %+v, oracle %+v", label, pass, i, vs[i], wantV[i])
							}
						}
						got := d.ClassifyBatch(ps)
						if len(got) != len(ps) {
							t.Fatalf("%s: ClassifyBatch returned %d labels for %d clips", label, len(got), len(ps))
						}
						for i := range ps {
							if got[i] != wantL[i] {
								t.Fatalf("%s pass %d: clip %d: batch %v, oracle %v", label, pass, i, got[i], wantL[i])
							}
						}
					}
					for i, p := range ps {
						if got := d.ClassifyPattern(p); got != wantL[i] {
							t.Fatalf("%s: clip %d: ClassifyPattern %v, oracle %v", label, i, got, wantL[i])
						}
					}
				}
			}
			d.memoDisabled = false
		})
	}
}

// TestClassifyBatchEmpty covers the zero-clip and no-kernel edges.
func TestClassifyBatchEmpty(t *testing.T) {
	d := trainedDetector(t, DefaultConfig())
	if out := d.ClassifyBatch(nil); len(out) != 0 {
		t.Fatalf("nil batch: %v", out)
	}
	var empty Detector
	out := empty.ClassifyBatch([]*clip.Pattern{b0(t)})
	if len(out) != 1 || out[0] != clip.NonHotspot {
		t.Fatalf("kernel-less detector: %v", out)
	}
}

func b0(t *testing.T) *clip.Pattern {
	t.Helper()
	return testBenchmark().Train[0]
}
