package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	snapstab "github.com/snapstab/snapstab"
)

// quickProfile exercises every code path in well under a second per
// workload. Its numbers are never results.
func quickProfile() profile {
	return profile{
		window:    200 * time.Millisecond,
		setupMin:  2,
		setupMax:  2,
		micro:     time.Millisecond,
		timeout:   10 * time.Second,
		maxEvents: 1 << 16,
	}
}

func mustLoadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestPrintsExactlyWhatBenchmarkJSONNames is the drift test: every
// workload of BENCHMARK.json exists with the same reason, and each pass
// reports every metric of its list exactly once, with its unit, and
// nothing else.
func TestPrintsExactlyWhatBenchmarkJSONNames(t *testing.T) {
	spec := mustLoadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: bad name, unit or direction", m)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
	}
	for i, wl := range workloads {
		wl := wl
		if sw := spec.Workloads[i]; sw.Name != wl.name || sw.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, sw.Name, sw.Why, wl.name, wl.why)
		}
		if !name.MatchString(wl.name) {
			t.Errorf("workload name %q", wl.name)
		}
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			for _, pass := range []struct {
				trace bool
				specs []metricSpec
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				var log bytes.Buffer
				_, ok, err := suite([]workload{wl}, 1, quickProfile(), pass.trace, spec, t.TempDir(), &log)
				if err != nil || !ok {
					t.Fatalf("trace=%t: ok=%t err=%v\n%s", pass.trace, ok, err, log.String())
				}
				lines := strings.Split(strings.TrimSpace(log.String()), "\n")
				var r reported
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("trace=%t: last line is not the result object: %v", pass.trace, err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("trace=%t: correct=%t attempted=%d failed=%d", pass.trace, r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(pass.specs) {
					t.Errorf("trace=%t: %d metrics reported, BENCHMARK.json lists %d", pass.trace, len(r.Metrics), len(pass.specs))
				}
				for _, m := range pass.specs {
					if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("trace=%t: metric %s: reported %+v (present %t), want unit %s", pass.trace, m.Name, got, ok, m.Unit)
					}
					if n := strings.Count(log.String(), "\n"+wl.name+"/"+m.Name+" "); n > 1 {
						t.Errorf("trace=%t: %s/%s printed %d times", pass.trace, wl.name, m.Name, n)
					}
				}
				if !pass.trace {
					for _, m := range pass.specs {
						if r.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s/%s is %v; it must never be 0", wl.name, m.Name, r.Metrics[m.Name].Value)
						}
					}
				}
			}
		})
	}
}

// nopCluster stands in for a façade cluster under a fake workload.
type nopCluster struct{}

func (nopCluster) Close() error                              { return nil }
func (nopCluster) TransportStats() []snapstab.TransportStats { return nil }
func (nopCluster) FaultStats() snapstab.FaultStats           { return snapstab.FaultStats{} }

// fakeWorkload answers every request at once with verdict(), or never
// (verdict == nil).
func fakeWorkload(verdict func() error) workload {
	closed := make(chan struct{})
	close(closed)
	return workload{name: "fake", engine: "udp", build: func(*inputs, hookFn) *driver {
		return &driver{
			c:     nopCluster{},
			width: 1,
			issue: func(int) pending {
				if verdict == nil {
					return pending{done: make(chan struct{})}
				}
				return pending{done: closed, result: verdict}
			},
			counters: func() counterSet { return counterSet{} },
		}
	}}
}

// TestWrongAnswersFailTheRun feeds the run a wrong feedback value, a
// critical-section body that ran twice and a request that never decides:
// each must count as failed, raise fail_ratio, clear "correct" and turn
// the exit code non-zero.
func TestWrongAnswersFailTheRun(t *testing.T) {
	spec := mustLoadSpec(t)
	want := func(q int) snapstab.Payload { return snapstab.Payload{Tag: "ack", Num: 7000 + int64(q)} }
	right := []feedback[snapstab.Payload]{{from: 1, value: want(1)}, {from: 2, value: want(2)}}
	if err := checkFeedbacks(3, 0, right, want); err != nil {
		t.Fatalf("correct feedbacks rejected: %v", err)
	}
	if err := checkAcquire(1, nil); err != nil {
		t.Fatalf("correct acquire rejected: %v", err)
	}
	wrong := []feedback[snapstab.Payload]{{from: 1, value: want(1)}, {from: 2, value: snapstab.Payload{Tag: "ack", Num: 7001}}}
	cases := map[string]func() error{
		"wrong feedback value": func() error { return checkFeedbacks(3, 0, wrong, want) },
		"missing feedback":     func() error { return checkFeedbacks(3, 0, right[:1], want) },
		"body ran twice":       func() error { return checkAcquire(2, nil) },
		"exclusion violated":   func() error { return checkAcquire(1, []string{"two processes in the critical section"}) },
		"never decides":        nil,
	}
	for name, verdict := range cases {
		p := quickProfile()
		p.window = 30 * time.Millisecond
		p.timeout = 10 * time.Millisecond
		outs, ok, err := suite([]workload{fakeWorkload(verdict)}, 1, p, false, spec, t.TempDir(), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o := outs[0]
		if o.tally.failed != o.tally.attempted || o.tally.failRatio() != 1 {
			t.Errorf("%s: failed %d of %d attempted (fail_ratio %v), want every request failed", name, o.tally.failed, o.tally.attempted, o.tally.failRatio())
		}
		if r, _ := report(o, spec.EndToEnd, spec.PerLayer); r.Correct {
			t.Errorf("%s: result says correct", name)
		}
		if code := exitCode(ok, nil); code == 0 {
			t.Errorf("%s: exit code 0", name)
		}
		if verdict == nil && !errors.Is(o.tally.firstErrs[0], errTimeout) {
			t.Errorf("%s: first error %v, want the timeout", name, o.tally.firstErrs[0])
		}
	}
}

// TestSeedChoosesTheInputs: the same seed reproduces sim-recover's counts
// exactly, another seed changes the generated inputs.
func TestSeedChoosesTheInputs(t *testing.T) {
	if a, b := newInputs(1, 64).order(5), newInputs(1, 64).order(5); a != b {
		t.Errorf("seed 1 gave two different orders: %v, %v", a, b)
	}
	if a, b := newInputs(1, 64).order(5), newInputs(2, 64).order(5); a == b || a.Note == b.Note {
		t.Errorf("seeds 1 and 2 gave the same order: %v", a)
	}
	counts := func(seed uint64) counterSet {
		d := buildSimRecover(newInputs(seed, 0), nil)
		defer d.c.Close()
		var ss [maxWidth]sample
		for i := 0; i < 12; i++ {
			round(d, i, 10*time.Second, ss[:], nil)
			if ss[0].err != nil {
				t.Fatal(ss[0].err)
			}
		}
		return d.counters()
	}
	a, b, c := counts(1), counts(1), counts(2)
	for key, v := range a {
		if b[key] != v {
			t.Errorf("seed 1 twice: %s = %d, then %d", key, v, b[key])
		}
	}
	if a["sends"] == c["sends"] && a["steps"] == c["steps"] {
		t.Errorf("seeds 1 and 2 gave the same execution: %v", a)
	}
}

// TestSetupIsStatedAtTheQuietSpeed pins setup_s: the wall time on a quiet
// box, the computing share scaled back on a slow one, the sleeping share
// never.
func TestSetupIsStatedAtTheQuietSpeed(t *testing.T) {
	quiet, slow := refKernelQuiet.Seconds(), 1.25*refKernelQuiet.Seconds()
	for _, c := range []struct {
		name       string
		busy, ref  float64
		wantSetupS float64
	}{
		{"quiet box", 0.010, quiet, 0.010},
		{"slow box, all computing", 0.010, slow, 0.008},
		{"slow box, all asleep", 0, slow, 0.010},
		{"slow box, half and half", 0.005, slow, 0.009},
		{"more processor time than wall time", 0.015, slow, 0.008},
	} {
		out := outcome{values: map[string]float64{}, samples: map[string]int{}}
		setupMetrics(&out, coldRun{cycleS: []float64{0.010}, busyS: []float64{c.busy}, refS: []float64{c.ref}})
		if got := out.values["setup_s"]; math.Abs(got-c.wantSetupS) > 1e-12 {
			t.Errorf("%s: setup_s %v, want %v", c.name, got, c.wantSetupS)
		}
		if got := out.values["facade.cold_cycle_ms"]; got != 10 {
			t.Errorf("%s: the wall time reads %v ms, want 10", c.name, got)
		}
	}
}

// TestSelfTimeIsDurationMinusCoveredChildren pins the trace summary's
// self time on overlapping, out-of-order and overhanging children.
func TestSelfTimeIsDurationMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 40, End: 60, Parent: 0},
		{Name: "child", Start: 10, End: 30, Parent: 0},
		{Name: "child", Start: 20, End: 45, Parent: 0},  // overlaps both
		{Name: "child", Start: 90, End: 120, Parent: 0}, // overhangs the parent
		{Name: "grandchild", Start: 12, End: 14, Parent: 2},
	}
	got := map[string]spanSummary{}
	for _, s := range summarise(spans) {
		got[s.Name] = s
	}
	// children cover [10,60] and [90,100] of the request: 60 of 100 ns.
	if self := got["request"].SelfMS * 1e6; self < 39.999 || self > 40.001 {
		t.Errorf("request self time %v ns, want 40", self)
	}
	if n := got["child"].Count; n != 4 {
		t.Errorf("child count %d, want 4", n)
	}
	if self, total := got["child"].SelfMS*1e6, got["child"].TotalMS*1e6; total-self < 1.999 || total-self > 2.001 {
		t.Errorf("children lose %v ns to the grandchild, want 2", total-self)
	}
}

// TestLeadingRequestsKeepsWholeRequestsAndParents pins the truncation of
// trace.json.
func TestLeadingRequestsKeepsWholeRequestsAndParents(t *testing.T) {
	spans := []span{
		{Name: "facade.build", Parent: -1, Req: -1},
		{Name: "request", Parent: -1, Req: 0},
		{Name: "request", Parent: -1, Req: 1},
		{Name: "facade.issue", Parent: 1, Req: 0},
		{Name: "facade.issue", Parent: 2, Req: 1},
		{Name: "pif.start_to_decide", Parent: 1, Req: 0},
		{Name: "pif.start_to_decide", Parent: 2, Req: 1},
	}
	got := leadingRequests(spans, 5)
	if len(got) != 4 {
		t.Fatalf("kept %d spans, want the build root and request 0's three", len(got))
	}
	for _, s := range got[2:] {
		if s.Req != 0 || got[s.Parent].Name != "request" || got[s.Parent].Req != 0 {
			t.Errorf("span %+v lost its request or parent", s)
		}
	}
}
