package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceEvent is one event in the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing load). Ts and Dur are in microseconds; the
// profiler's flame charts reinterpret the microsecond axis as simulated
// cycles (1 µs = 1 cycle), which keeps them deterministic.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer records spans on the wall clock for the engine's compile / cell /
// verify phases. Spans get distinct tid lanes so overlapping
// work renders as parallel rows in Perfetto. Wall-clock traces are
// non-golden by nature: load them to see where a campaign spent its time,
// not to diff across runs. A nil *Tracer is inert.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []TraceEvent
	lanes  []bool
}

// NewTracer returns a tracer with its epoch at now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Span opens a span and returns the closure that closes it; defer it.
// args may be nil.
func (t *Tracer) Span(cat, name string, args map[string]any) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.start)
	lane := t.acquireLane()
	return func() {
		dur := time.Since(t.start) - start
		t.mu.Lock()
		t.events = append(t.events, TraceEvent{
			Name: name, Cat: cat, Ph: "X",
			Ts:  float64(start.Microseconds()),
			Dur: float64(dur.Microseconds()),
			Pid: 1, Tid: lane, Args: args,
		})
		t.lanes[lane-1] = false
		t.mu.Unlock()
	}
}

// Instant records a zero-duration instant event.
func (t *Tracer) Instant(cat, name string, args map[string]any) {
	if t == nil {
		return
	}
	ts := float64(time.Since(t.start).Microseconds())
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "i",
		Ts: ts, Pid: 1, Tid: 1, Args: args,
	})
	t.mu.Unlock()
}

// acquireLane reserves the lowest free tid lane.
func (t *Tracer) acquireLane() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, busy := range t.lanes {
		if !busy {
			t.lanes[i] = true
			return int64(i + 1)
		}
	}
	t.lanes = append(t.lanes, true)
	return int64(len(t.lanes))
}

// Events returns a copy of the recorded events.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// WriteTraceJSON writes events in the Chrome trace-event JSON object form
// ({"traceEvents": [...]}), one event per line for diffability. The byte
// output is a pure function of the event list.
func WriteTraceJSON(w io.Writer, events []TraceEvent) error {
	var buf bytes.Buffer
	buf.WriteString("{\"traceEvents\": [\n")
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("obs: encode trace event %d: %w", i, err)
		}
		buf.WriteString("  ")
		buf.Write(b)
		if i < len(events)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// validPhases is the set of trace-event phase codes this repo emits or
// accepts: duration (B/E), complete (X), instant (i/I), counter (C), and
// metadata (M).
var validPhases = map[string]bool{
	"B": true, "E": true, "X": true, "i": true, "I": true, "C": true, "M": true,
}

// ValidateTrace checks data against the Chrome trace-event format: either
// a JSON array of events or an object with a traceEvents array; every
// event must carry a known ph, numeric ts/pid/tid (metadata events are
// exempt from ts), a name where the phase requires one, a non-negative dur
// on complete events, and B/E events must nest and balance per (pid, tid)
// track. Returns nil when the trace is loadable.
func ValidateTrace(data []byte) error {
	var events []map[string]json.RawMessage
	if err := json.Unmarshal(data, &events); err != nil {
		var obj struct {
			TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
		}
		if err2 := json.Unmarshal(data, &obj); err2 != nil {
			return fmt.Errorf("obs: trace is neither a JSON event array nor a traceEvents object: %v", err2)
		}
		if obj.TraceEvents == nil {
			return fmt.Errorf("obs: trace object has no traceEvents array")
		}
		events = obj.TraceEvents
	}

	type track struct{ pid, tid int64 }
	open := map[track][]string{}
	for i, ev := range events {
		ph, err := stringField(ev, "ph")
		if err != nil {
			return fmt.Errorf("obs: trace event %d: %v", i, err)
		}
		if !validPhases[ph] {
			return fmt.Errorf("obs: trace event %d: unknown phase %q", i, ph)
		}
		pid, err := intField(ev, "pid")
		if err != nil {
			return fmt.Errorf("obs: trace event %d: %v", i, err)
		}
		tid, err := intField(ev, "tid")
		if err != nil {
			return fmt.Errorf("obs: trace event %d: %v", i, err)
		}
		if ph != "M" {
			if _, err := numField(ev, "ts"); err != nil {
				return fmt.Errorf("obs: trace event %d: %v", i, err)
			}
		}
		name, _ := stringField(ev, "name")
		switch ph {
		case "B", "X", "i", "I", "C", "M":
			if name == "" {
				return fmt.Errorf("obs: trace event %d (ph=%s): missing name", i, ph)
			}
		}
		if ph == "X" {
			if raw, ok := ev["dur"]; ok {
				var dur float64
				if err := json.Unmarshal(raw, &dur); err != nil || dur < 0 {
					return fmt.Errorf("obs: trace event %d: complete event has invalid dur %s", i, raw)
				}
			}
		}
		tr := track{pid, tid}
		switch ph {
		case "B":
			open[tr] = append(open[tr], name)
		case "E":
			stack := open[tr]
			if len(stack) == 0 {
				return fmt.Errorf("obs: trace event %d: E with no open B on pid=%d tid=%d", i, pid, tid)
			}
			if name != "" && stack[len(stack)-1] != name {
				return fmt.Errorf("obs: trace event %d: E %q closes B %q on pid=%d tid=%d (mismatched nesting)",
					i, name, stack[len(stack)-1], pid, tid)
			}
			open[tr] = stack[:len(stack)-1]
		}
	}
	for tr, stack := range open {
		if len(stack) > 0 {
			return fmt.Errorf("obs: trace leaves %d unclosed B event(s) on pid=%d tid=%d (innermost %q)",
				len(stack), tr.pid, tr.tid, stack[len(stack)-1])
		}
	}
	return nil
}

func stringField(ev map[string]json.RawMessage, key string) (string, error) {
	raw, ok := ev[key]
	if !ok {
		return "", fmt.Errorf("missing %s", key)
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", fmt.Errorf("%s is not a string: %s", key, raw)
	}
	return s, nil
}

func numField(ev map[string]json.RawMessage, key string) (float64, error) {
	raw, ok := ev[key]
	if !ok {
		return 0, fmt.Errorf("missing %s", key)
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, fmt.Errorf("%s is not a number: %s", key, raw)
	}
	return v, nil
}

func intField(ev map[string]json.RawMessage, key string) (int64, error) {
	v, err := numField(ev, key)
	if err != nil {
		return 0, err
	}
	if v != float64(int64(v)) {
		return 0, fmt.Errorf("%s is not an integer: %v", key, v)
	}
	return int64(v), nil
}
