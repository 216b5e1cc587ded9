package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/experiment"
)

// tinyConfig keeps every workload to a fraction of a second per operation.
var tinyConfig = config{
	suiteScale: 0.02, suiteRuns: 3,
	tablesScale: 0.02, tablesRuns: 3,
	farmScale: 0.02, farmRuns: 2,
	benchmarks: []string{"astar", "mcf"},
}

// tinyWorkload builds a workload of the tiny configuration whose reference
// digests come from a separate reference run of the same configuration.
func tinyWorkload(t *testing.T, name string) workload {
	t.Helper()
	wl, err := newWorkload(name, tinyConfig, 0)
	if err != nil {
		t.Fatal(err)
	}
	if name == "farm-quick" {
		return wl
	}
	ref, err := referenceOutputs(context.Background(), name, tinyConfig, 0, t.TempDir())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	switch w := wl.(type) {
	case *suiteNative:
		w.refs = ref
	case *paperTables:
		w.refs = ref
	}
	return wl
}

// benchmarkJSON reads the benchmark's definition from the repository root.
func benchmarkJSON(t *testing.T) (e2e, layers []string) {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if _, err := newWorkload(w.Name, tinyConfig, 0); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
	for _, m := range def.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range def.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s metric names differ from BENCHMARK.json:\n got %v\nwant %v", what, got, want)
	}
}

// TestSmoke runs one operation of each workload, untraced and traced, at
// the tiny configuration: every output must check, every metric must be
// finite, and the names must be those BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	for _, name := range []string{"suite-native", "paper-tables", "farm-quick"} {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				o := options{workload: name, seconds: 0.001, trace: traced, dir: t.TempDir()}
				res, err := measure(context.Background(), tinyWorkload(t, name), o, t.TempDir(), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if traced {
					sameNames(t, "per-layer", names(res.Metrics), layers)
				} else {
					sameNames(t, "end-to-end", names(res.Metrics), e2e)
				}
				for k, v := range res.Metrics {
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want positive", k, v.Value)
					}
				}
			})
		}
	}
}

// TestAlteredArtifactFails alters one sample of a collected artifact: the
// suite's digest check and the farm's comparison with a local collection
// must both reject it.
func TestAlteredArtifactFails(t *testing.T) {
	ctx := context.Background()
	s := tinyWorkload(t, "suite-native").(*suiteNative)
	art, err := bench.Collect(ctx, bench.CollectOptions{
		Suite:  tinyConfig.suite(),
		Config: experiment.Config{Scale: tinyConfig.suiteScale, Level: compiler.O2},
		Runs:   tinyConfig.suiteRuns, Seed: s.seeds()[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	art.Benchmarks[0].Seconds[0] *= 1.000001
	enc, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var out outputs
	out.add(s.key("artifact-a"), digest(enc))
	if err := out.check(s.refs); err == nil {
		t.Error("suite check accepted an altered artifact")
	}

	f := &farmQuick{cfg: tinyConfig}
	spec := f.spec()
	opts, err := spec.CollectOptions()
	if err != nil {
		t.Fatal(err)
	}
	art, err = bench.Collect(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	art.Benchmarks[1].Cycles[0]++
	if enc, err = art.Encode(); err != nil {
		t.Fatal(err)
	}
	f.cold = []coldCampaign{{spec, digest(enc)}}
	if err := f.check(ctx); err == nil {
		t.Error("farm check accepted an altered artifact")
	}
}

// TestOutputsChangeWithinRun: an operation that reproduces different
// bytes than the first one fails the check even before any reference.
func TestOutputsChangeWithinRun(t *testing.T) {
	var out outputs
	out.add("k", "aaaa")
	out.add("k", "bbbb")
	if err := out.check(digestTable{"k": "aaaa"}); err == nil {
		t.Error("check accepted outputs that changed between operations")
	}
}

// TestTraceStructure checks the span validator and the self-time
// arithmetic on a hand-built trace.
func TestTraceStructure(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.rootAt(laneClient, "perfbench", "op", at(0))
	root.record(laneClient, "bench", "a", "", at(10), at(40))
	root.record(laneClient, "bench", "b", "", at(30), at(60))
	root.endAt(at(100))
	if err := tr.validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	self := tr.selfTimes()
	if got := self["perfbench"]; got < 0.0499 || got > 0.0501 {
		t.Errorf("root self time %v, want 0.05 (100 ms minus the 50 ms its children cover)", got)
	}
	if got := self["bench"]; got < 0.0599 || got > 0.0601 {
		t.Errorf("bench self time %v, want 0.06", got)
	}
	if _, err := tr.writeChrome(t.TempDir(), "trace.json"); err != nil {
		t.Errorf("write: %v", err)
	}

	root.record(laneClient, "bench", "late", "", at(90), at(120))
	if err := tr.validate(); err == nil {
		t.Error("a child ending after its parent on the same lane was accepted")
	}
}

// TestFarmSpecsAreFresh: every cold campaign gets its own seed, so none of
// its cells can be a store hit from an earlier one.
func TestFarmSpecsAreFresh(t *testing.T) {
	f := &farmQuick{cfg: tinyConfig, v: 3}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		spec := f.spec()
		for _, c := range spec.Cells() {
			if seen[c.StoreKey] {
				t.Fatalf("cell %s repeats across campaigns", c.StoreKey)
			}
			seen[c.StoreKey] = true
		}
	}
}
