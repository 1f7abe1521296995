package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	snapstab "github.com/snapstab/snapstab"
)

// The trace is taken from outside the program: spans around the calls
// the benchmark makes into the façade, and spans derived from the
// timestamps a WithEventHook subscriber takes of the engine's events.
// Spans of one request share its id; a span's parent is the span that
// caused it.
//
//	request                     issue .. the generator sees it ended
//	├─ facade.issue             the *Async call
//	├─ pif.start_to_decide      hook "start" .. "decide" at the initiator
//	│  └─ <engine>.turnaround   initiator "send" to q .. next "deliver" from q
//	└─ facade.await_lag         hook "decide" .. the generator sees it ended
//
// facade.build, facade.close and facade.corrupt are roots.

type evKind uint8

const (
	evOther evKind = iota
	evSend
	evDeliver
	evLose
	evSendLost
	evStart
	evDecide
	nEvKinds
)

func kindOf(s string) evKind {
	switch s {
	case "send":
		return evSend
	case "deliver":
		return evDeliver
	case "lose":
		return evLose
	case "send-lost":
		return evSendLost
	case "start":
		return evStart
	case "decide":
		return evDecide
	}
	return evOther
}

// evRec is one engine event as the hook saw it.
type evRec struct {
	t    int64 // ns since tracer.t0
	kind evKind
	proc int8
	peer int8
}

// span is one interval of the trace; times are ns since the tracer's
// origin, Parent indexes the span list (-1: root), Req is the request id
// (-1: not part of a request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// tracer is the event-hook subscriber. It always counts events by kind
// (the in-memory engine exports no counters of its own); while recording
// it also stamps each event into a preallocated buffer, lock-free,
// because the concurrent engines call the hook from every process
// goroutine inside their atomic sections.
type tracer struct {
	t0 time.Time
	// spansOn says the generator records façade spans (a traced pass);
	// off, the tracer only counts events for an engine without counters.
	spansOn   bool
	counts    [nEvKinds]atomic.Int64
	recording atomic.Bool
	next      atomic.Int64
	recs      []evRec
	spans     []span // façade spans; the generator goroutine alone appends
}

// newTracer preallocates room for maxEvents stamped events (0: the
// trace has no hook-derived spans).
func newTracer(maxEvents int, spans bool) *tracer {
	return &tracer{t0: time.Now(), spansOn: spans, recs: make([]evRec, maxEvents)}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) hook(e snapstab.ObservedEvent) {
	k := kindOf(e.Kind)
	t.counts[k].Add(1)
	if k == evOther || !t.recording.Load() {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.recs)) {
		return // buffer full: the summary covers the requests recorded whole
	}
	t.recs[i] = evRec{t: int64(time.Since(t.t0)), kind: k, proc: int8(e.Proc), peer: int8(e.Peer)}
}

func (t *tracer) counters() counterSet {
	sends := t.counts[evSend].Load()
	return counterSet{
		"sends":  sends,
		"frames": sends, // in memory every message travels alone
		"loses":  t.counts[evLose].Load() + t.counts[evSendLost].Load(),
	}
}

// addSpan records a façade span taken on the generator's clock.
func (t *tracer) addSpan(name string, start, end time.Time, parent, req int32) int32 {
	t.spans = append(t.spans, span{Name: name, Start: t.since(start), End: t.since(end), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// requestTrace is what the hook's events say about one request.
type requestTrace struct {
	startToDecide float64 // ns
	sends         int     // initiator sends between start and decide
	delivers      int     // deliveries at the initiator in the same interval
	turnarounds   []float64
}

// derive turns the stamped events into spans under each request's root
// and returns the per-request facts. samples[i] must be request i's
// timeline and roots[i] its root span; a request whose events ran past
// the buffer is skipped.
func (t *tracer) derive(engine string, samples []sample, roots []int32) []requestTrace {
	n := t.next.Load()
	full := n > int64(len(t.recs))
	if full {
		n = int64(len(t.recs))
	}
	var lastStamp int64
	byProc := make(map[int8][]evRec)
	for _, r := range t.recs[:n] {
		byProc[r.proc] = append(byProc[r.proc], r)
		lastStamp = max(lastStamp, r.t)
	}
	cursor := make(map[int8]int)
	var out []requestTrace
	for i, s := range samples {
		if s.err != nil {
			continue
		}
		issue, ended := t.since(s.issue), t.since(s.ended)
		if full && ended > lastStamp {
			break
		}
		evs := byProc[int8(s.proc)]
		j := cursor[int8(s.proc)]
		for j < len(evs) && evs[j].t < issue {
			j++
		}
		var started, decided int64
		var rt requestTrace
		lastSend := map[int8]int64{}
		type pair struct{ from, to int64 }
		var pairs []pair
		for ; j < len(evs) && evs[j].t <= ended; j++ {
			e := evs[j]
			switch {
			case e.kind == evStart && started == 0:
				started = e.t
			case e.kind == evDecide:
				decided = e.t
			case started == 0:
			case e.kind == evSend:
				rt.sends++
				lastSend[e.peer] = e.t
			case e.kind == evDeliver:
				rt.delivers++
				if from, ok := lastSend[e.peer]; ok {
					pairs = append(pairs, pair{from, e.t})
					delete(lastSend, e.peer)
				}
			}
		}
		cursor[int8(s.proc)] = j
		if started == 0 || decided < started {
			continue
		}
		req := int32(i)
		sd := int32(len(t.spans))
		t.spans = append(t.spans, span{Name: "pif.start_to_decide", Start: started, End: decided, Parent: roots[i], Req: req})
		for _, p := range pairs {
			if p.to > decided {
				break
			}
			t.spans = append(t.spans, span{Name: engine + ".turnaround", Start: p.from, End: p.to, Parent: sd, Req: req})
			rt.turnarounds = append(rt.turnarounds, float64(p.to-p.from))
		}
		t.spans = append(t.spans, span{Name: "facade.await_lag", Start: decided, End: ended, Parent: roots[i], Req: req})
		rt.startToDecide = float64(decided - started)
		out = append(out, rt)
	}
	return out
}

// spanSummary is one row of the trace summary: all spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the part of each span its children cover.
	SelfMS float64 `json:"self_ms"`
	P50US  float64 `json:"p50_us"`
}

// summarise computes, per span name, count, total time, self time and
// median. Self time is the span's duration minus the union of its
// children's intervals clipped to it.
func summarise(spans []span) []spanSummary {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	type acc struct {
		total, self int64
		durs        []float64
	}
	byName := map[string]*acc{}
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		dur := s.End - s.Start
		a.total += dur
		a.self += dur - covered
		a.durs = append(a.durs, float64(dur))
	}
	out := make([]spanSummary, 0, len(byName))
	for name, a := range byName {
		out = append(out, spanSummary{
			Name:    name,
			Count:   len(a.durs),
			TotalMS: float64(a.total) / 1e6,
			SelfMS:  float64(a.self) / 1e6,
			P50US:   median(a.durs) / 1e3,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// maxSpansInFile bounds trace.json; the summary always covers every span.
const maxSpansInFile = 20000

// leadingRequests keeps the roots outside any request and every span of
// the first requests, as many whole requests as fit in limit spans, and
// renumbers the parents.
func leadingRequests(spans []span, limit int) []span {
	perReq := map[int32]int{}
	for _, s := range spans {
		perReq[s.Req]++
	}
	total, upTo := perReq[-1], int32(0)
	for ; total+perReq[upTo] <= limit && perReq[upTo] > 0; upTo++ {
		total += perReq[upTo]
	}
	out := make([]span, 0, total)
	renumbered := make(map[int32]int32, total)
	for i, s := range spans {
		if s.Req >= upTo {
			continue
		}
		if s.Parent >= 0 {
			s.Parent = renumbered[s.Parent]
		}
		renumbered[int32(i)] = int32(len(out))
		out = append(out, s)
	}
	return out
}

// traceFile is the schema of out/trace.json.
type traceFile struct {
	Workload   string        `json:"workload"`
	Seed       uint64        `json:"seed"`
	SpansTotal int           `json:"spans_total"`
	Truncated  bool          `json:"truncated"`
	Summary    []spanSummary `json:"summary"`
	Spans      []span        `json:"spans"`
}

func writeTrace(path string, f traceFile) error {
	if len(f.Spans) > maxSpansInFile {
		f.Spans, f.Truncated = leadingRequests(f.Spans, maxSpansInFile), true
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
