package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// stay in memory until the run ends; writeChrome then writes them as a
// Chrome trace and validates it. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int64
}

// span is one timed call. Every span of one operation carries that
// operation's root span ID in op; parent is the span that caused it (0 for
// an operation's root).
type span struct {
	id, parent, op int64
	layer, name    string
	detail         string
	lane           int64
	start, end     time.Duration
}

// ref names an open span; the zero ref (from a nil tracer) is inert.
type ref struct {
	id, op, lane int64
	t            *tracer
}

// Lanes group spans by the goroutine that made the call.
const (
	laneSetup  = 1
	laneClient = 2
	laneWorker = 10 // + worker index
)

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens the root span of a new operation.
func (t *tracer) root(lane int64, layer, name string) ref {
	return t.rootAt(lane, layer, name, time.Now())
}

// rootAt opens the root span of a new operation that started at start.
func (t *tracer) rootAt(lane int64, layer, name string, start time.Time) ref {
	if t == nil {
		return ref{}
	}
	return t.open(ref{t: t, lane: lane}, layer, name, "", start)
}

// child opens a span caused by parent, on parent's lane.
func (p ref) child(layer, name, detail string) ref {
	return p.childOn(p.lane, layer, name, detail, time.Now())
}

// childOn opens a span caused by parent on another lane, starting at start.
func (p ref) childOn(lane int64, layer, name, detail string, start time.Time) ref {
	if p.t == nil {
		return ref{}
	}
	return p.t.open(ref{t: p.t, id: p.id, op: p.op, lane: lane}, layer, name, detail, start)
}

func (t *tracer) open(parent ref, layer, name, detail string, start time.Time) ref {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := span{id: t.next, parent: parent.id, op: parent.op, layer: layer, name: name, detail: detail,
		lane: parent.lane, start: start.Sub(t.t0), end: -1}
	if s.parent == 0 {
		s.op = s.id
	}
	t.spans = append(t.spans, s)
	return ref{t: t, id: s.id, op: s.op, lane: s.lane}
}

// end closes the span now.
func (r ref) end() { r.endAt(time.Now()) }

// endAt closes the span at the given time.
func (r ref) endAt(at time.Time) {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	r.t.spans[r.id-1].end = at.Sub(r.t.t0)
}

// record adds a closed span covering [start, end].
func (p ref) record(lane int64, layer, name, detail string, start, end time.Time) {
	p.childOn(lane, layer, name, detail, start).endAt(end)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations, in seconds, of every span with the
// given name (and detail, when detail is not empty).
func (t *tracer) durations(name, detail string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && (detail == "" || s.detail == detail) && s.end >= 0 {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// selfTimes sums each layer's self time: a span's duration minus the part
// of its interval that its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		covered := coveredWithin(children[s.id], s.start, s.end)
		out[s.layer] += (s.end - s.start - covered).Seconds()
	}
	return out
}

// coveredWithin is the length of the union of the spans' intervals,
// clipped to [lo, hi].
func coveredWithin(spans []span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// validate checks the spans' structure: every span is closed and ends
// after it starts, every parent exists and belongs to the same operation,
// a root is its own operation, and a child on its parent's lane lies
// inside the parent.
func (t *tracer) validate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := map[int64]span{}
	for _, s := range t.spans {
		byID[s.id] = s
	}
	for _, s := range t.spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) is open or ends before it starts", s.id, s.name)
		}
		if s.parent == 0 {
			if s.op != s.id {
				return fmt.Errorf("root span %d (%s) has operation %d", s.id, s.name, s.op)
			}
			continue
		}
		p, ok := byID[s.parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.id, s.name, s.parent)
		}
		if p.op != s.op {
			return fmt.Errorf("span %d (%s) is in operation %d but its parent in %d", s.id, s.name, s.op, p.op)
		}
		if p.lane == s.lane && (s.start < p.start || s.end > p.end) {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.id, s.name, p.id, p.name)
		}
	}
	return nil
}

// writeChrome validates the spans, writes them as a Chrome trace into dir,
// and checks the written file with the repository's trace validator.
func (t *tracer) writeChrome(dir, file string) (string, error) {
	if err := t.validate(); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	events := make([]obs.TraceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, obs.TraceEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op, "detail": s.detail},
		})
	}
	t.mu.Unlock()
	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf, events); err != nil {
		return "", err
	}
	if err := obs.ValidateTrace(buf.Bytes()); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
