package experiment

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/spec"
)

// withScope installs a fresh observability scope for one test and removes
// it afterwards, resetting the compile cache so its hit/miss counters
// start from zero.
func withScope(t *testing.T) *obs.Scope {
	t.Helper()
	ResetCompileCache()
	scope := obs.NewScope()
	SetObs(scope)
	t.Cleanup(func() {
		SetObs(nil)
		ResetCompileCache()
	})
	return scope
}

// TestProfileRunMatchesRunCtx is the observer's non-interference contract:
// attaching the profiler must not change the measurement, and the profile
// must conserve the machine's totals (every counted event attributed
// exactly once).
func TestProfileRunMatchesRunCtx(t *testing.T) {
	b, _ := spec.ByName("astar")
	cc, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := cc.RunCtx(context.Background(), 11)
	if err != nil {
		t.Fatal(err)
	}
	profiled, p, err := cc.ProfileRun(context.Background(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, profiled) {
		t.Errorf("profiling changed the run result:\n%+v\n%+v", plain, profiled)
	}
	if p == nil {
		t.Fatal("ProfileRun returned no profile")
	}
	if p.Total != plain.Counters {
		t.Errorf("profile total != machine counters (attribution leaks):\n%+v\n%+v", p.Total, plain.Counters)
	}
	var perFnCycles uint64
	for _, c := range p.PerFn {
		perFnCycles += c.Cycles
	}
	if perFnCycles != p.Total.Cycles {
		t.Errorf("per-function cycles sum to %d, total is %d", perFnCycles, p.Total.Cycles)
	}
}

// TestMetricsSnapshotByteIdenticalAcrossWorkers pins the -metrics
// determinism contract: the golden snapshot of a fixed-seed collection is
// byte-identical at any pool width.
func TestMetricsSnapshotByteIdenticalAcrossWorkers(t *testing.T) {
	collect := func(workers int) []byte {
		scope := withScope(t)
		b, _ := spec.ByName("astar")
		cc, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cc.collect(context.Background(), NewPool(workers), 12, 500); err != nil {
			t.Fatal(err)
		}
		buf, err := scope.Metrics.Snapshot(false).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	seq := collect(1)
	par := collect(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("golden metrics differ between -j1 and -j8:\n%s\n%s", seq, par)
	}
	// Sanity: the snapshot actually carries the engine counters.
	for _, want := range []string{"pool.runs.completed", "compile.cache.misses"} {
		if !strings.Contains(string(seq), want) {
			t.Errorf("snapshot missing %s:\n%s", want, seq)
		}
	}
}

// TestEngineSpansValidate runs a cell under a scope and checks the tracer
// output is loadable trace-event JSON with the expected span names.
func TestEngineSpansValidate(t *testing.T) {
	scope := withScope(t)
	b, _ := spec.ByName("astar")
	cc, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Collect(context.Background(), 3, 900); err != nil {
		t.Fatal(err)
	}
	events := scope.Trace.Events()
	cats := map[string]bool{}
	for _, ev := range events {
		cats[ev.Cat] = true
	}
	if !cats["compile"] || !cats["cell"] {
		t.Errorf("expected compile and cell spans, got categories %v", cats)
	}
	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Errorf("engine trace does not validate: %v", err)
	}
}

// TestWarnCellRoutesToLogger checks the structured-logging satellite: with
// a scope installed, engine warnings become JSONL records labeled with the
// cell; without one they fall back to the plain-text writer.
func TestWarnCellRoutesToLogger(t *testing.T) {
	scope := withScope(t)
	var buf bytes.Buffer
	scope.Log = obs.NewLogger(&buf, obs.LevelInfo)
	warnCell("astar -O2 native", "experiment: result store: %v", "disk full")
	line := buf.String()
	if !strings.Contains(line, `"level":"warn"`) ||
		!strings.Contains(line, `"cell":"astar -O2 native"`) ||
		!strings.Contains(line, "disk full") {
		t.Errorf("warnCell JSONL line missing level/cell/msg: %s", line)
	}

	SetObs(nil)
	var plain bytes.Buffer
	SetProgress(&plain)
	defer SetProgress(nil)
	warnCell("astar -O2 native", "experiment: result store: %v", "disk full")
	if !strings.Contains(plain.String(), "[astar -O2 native]") {
		t.Errorf("fallback warnCell line missing cell label: %s", plain.String())
	}
}

// TestPoolScopedProgressWriter covers the WithProgress satellite: each
// pool writes its own stream, nil explicitly silences, and the deprecated
// global remains the fallback.
func TestPoolScopedProgressWriter(t *testing.T) {
	var global, local bytes.Buffer
	SetProgress(&global)
	defer SetProgress(nil)

	p := NewPool(2)
	if got := p.progressDest(); got != &global {
		t.Errorf("pool without own writer should fall back to the global")
	}
	pl := p.WithProgress(&local)
	if got := pl.progressDest(); got != &local {
		t.Errorf("WithProgress writer not used")
	}
	if got := p.progressDest(); got != &global {
		t.Errorf("WithProgress mutated the receiver")
	}
	silent := p.WithProgress(nil)
	if got := silent.progressDest(); got != nil {
		t.Errorf("WithProgress(nil) should silence the pool, got %v", got)
	}
}
