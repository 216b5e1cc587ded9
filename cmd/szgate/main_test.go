package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/interp"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/store"
)

// writeSynthetic writes an artifact with n deterministic normal-shaped
// samples per benchmark to dir/name and returns the path.
func writeSynthetic(t *testing.T, dir, name string, n int, means map[string]float64, mutate func(*bench.Artifact)) string {
	t.Helper()
	a := &bench.Artifact{
		Meta: bench.Meta{Schema: bench.SchemaVersion, Unit: bench.UnitSimulatedSeconds,
			Seed: 1, Scale: 1, Level: "-O2", Stabilizer: "native", Noise: 0.0025},
	}
	for bname, mu := range means {
		xs := make([]float64, n)
		for i := range xs {
			p := (float64(i) + 0.5) / float64(n)
			xs[i] = mu * (1 + 0.0025*stats.NormalQuantile(p))
		}
		a.Benchmarks = append(a.Benchmarks, bench.Benchmark{Name: bname, Runs: n, Seconds: xs})
	}
	if mutate != nil {
		mutate(a)
	}
	path := filepath.Join(dir, name)
	buf, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	means := map[string]float64{"astar": 0.5, "mcf": 1.2}
	base := writeSynthetic(t, dir, "base.json", 20, means, nil)
	same := writeSynthetic(t, dir, "same.json", 20, means, nil)
	slow := writeSynthetic(t, dir, "slow.json", 20, means, func(a *bench.Artifact) {
		for i := range a.Benchmarks {
			for j := range a.Benchmarks[i].Seconds {
				a.Benchmarks[i].Seconds[j] *= 1.25
			}
		}
	})

	t.Run("pass", func(t *testing.T) {
		var out bytes.Buffer
		code, err := cmdCompare([]string{"-boot", "300", base, same}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != exitOK {
			t.Fatalf("exit code %d on identical artifacts, want %d\n%s", code, exitOK, out.String())
		}
		if !strings.Contains(out.String(), "astar") {
			t.Errorf("gate table missing benchmark rows:\n%s", out.String())
		}
	})

	t.Run("regression", func(t *testing.T) {
		var out bytes.Buffer
		code, err := cmdCompare([]string{"-boot", "300", base, slow}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != exitGateFail {
			t.Fatalf("exit code %d on 25%% regression, want %d\n%s", code, exitGateFail, out.String())
		}
	})
}

func TestCompareInfraErrors(t *testing.T) {
	dir := t.TempDir()
	means := map[string]float64{"astar": 0.5}
	base := writeSynthetic(t, dir, "base.json", 20, means, nil)

	t.Run("missing file", func(t *testing.T) {
		var out bytes.Buffer
		code, err := cmdCompare([]string{base, filepath.Join(dir, "nope.json")}, &out)
		if code != exitInfra || err == nil {
			t.Fatalf("code=%d err=%v, want exit %d with error", code, err, exitInfra)
		}
	})

	t.Run("schema mismatch", func(t *testing.T) {
		// Encode refuses to produce an unknown schema, so rewrite the
		// serialized field the way a future build's artifact would carry it.
		raw, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		cur := []byte(fmt.Sprintf(`"schema": %d`, bench.SchemaVersion))
		rewritten := bytes.Replace(raw, cur, []byte(`"schema": 100`), 1)
		if bytes.Equal(rewritten, raw) {
			t.Fatalf("schema field %s not found in artifact; fixture is stale", cur)
		}
		future := filepath.Join(dir, "future.json")
		if err := os.WriteFile(future, rewritten, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		code, err := cmdCompare([]string{base, future}, &out)
		if code != exitInfra || err == nil {
			t.Fatalf("code=%d err=%v, want exit %d with error", code, err, exitInfra)
		}
	})

	t.Run("incomparable configs", func(t *testing.T) {
		other := writeSynthetic(t, dir, "otherscale.json", 20, means, func(a *bench.Artifact) {
			a.Meta.Scale = 2
		})
		var out bytes.Buffer
		code, err := cmdCompare([]string{base, other}, &out)
		if code != exitInfra || err == nil {
			t.Fatalf("code=%d err=%v, want exit %d with error", code, err, exitInfra)
		}
	})

	t.Run("wrong arg count", func(t *testing.T) {
		var out bytes.Buffer
		code, err := cmdCompare([]string{base}, &out)
		if code != exitInfra || err == nil {
			t.Fatalf("code=%d err=%v, want exit %d with usage error", code, err, exitInfra)
		}
	})
}

// TestCompareStoreParity pins the -store contract: gating against a
// store-assembled artifact must reproduce the file-based compare exactly —
// same exit code, same gate table — because the store assembly is the same
// collection path that would have written new.json.
func TestCompareStoreParity(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "cells")
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	b, _ := spec.ByName("astar")
	ctx := experiment.WithCellStore(context.Background(), st.Cells(interp.EngineCompiled))
	art, err := bench.Collect(ctx, bench.CollectOptions{
		Suite:  []spec.Benchmark{b},
		Config: experiment.Config{Scale: 0.05, Level: compiler.O2},
		Runs:   6,
		Seed:   77,
	})
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	newPath := filepath.Join(dir, "new.json")
	if err := art.WriteFile(newPath); err != nil {
		t.Fatalf("write new: %v", err)
	}

	// Two baselines: the collection itself (a pass) and a faster past (the
	// collection is then a regression candidate). The verdicts themselves
	// don't matter — their parity across file and store paths does.
	writeOld := func(name string, speedup float64) string {
		old := *art
		old.Benchmarks = append([]bench.Benchmark(nil), art.Benchmarks...)
		for i := range old.Benchmarks {
			scaled := append([]float64(nil), old.Benchmarks[i].Seconds...)
			for j := range scaled {
				scaled[j] *= speedup
			}
			old.Benchmarks[i].Seconds = scaled
		}
		path := filepath.Join(dir, name)
		if err := old.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	storeArgs := []string{"-store", storeDir, "-bench", "astar",
		"-runs", "6", "-scale", "0.05", "-collect-seed", "77"}
	for _, tc := range []struct {
		name string
		old  string
	}{
		{"same baseline", writeOld("same.json", 1.0)},
		{"faster baseline", writeOld("fast.json", 0.5)},
	} {
		var fileOut, storeOut bytes.Buffer
		fileCode, err := cmdCompare([]string{"-boot", "300", tc.old, newPath}, &fileOut)
		if err != nil {
			t.Fatalf("%s: file compare: %v", tc.name, err)
		}
		storeCode, err := cmdCompare(append(append([]string{"-boot", "300"}, storeArgs...), tc.old), &storeOut)
		if err != nil {
			t.Fatalf("%s: store compare: %v", tc.name, err)
		}
		if fileCode != storeCode {
			t.Errorf("%s: file compare exit %d, store compare exit %d", tc.name, fileCode, storeCode)
		}
		if fileOut.String() != storeOut.String() {
			t.Errorf("%s: gate tables differ\nfile:\n%s\nstore:\n%s", tc.name, fileOut.String(), storeOut.String())
		}
	}

	// A cell the store never saw is infrastructure, not a verdict.
	missArgs := []string{"-store", storeDir, "-bench", "astar",
		"-runs", "6", "-scale", "0.05", "-collect-seed", "78"}
	var out bytes.Buffer
	code, err := cmdCompare(append(missArgs, writeOld("old.json", 1.0)), &out)
	if code != exitInfra || err == nil {
		t.Fatalf("store miss: code=%d err=%v, want exit %d with error", code, err, exitInfra)
	}

	// `run -store` is the crash-safe rerun path: a second run over the same
	// store writes a byte-identical artifact and adds no block.
	t.Cleanup(func() { experiment.SetObs(nil) })
	runStore := filepath.Join(dir, "run-cells")
	runArtifact := func(name string) ([]byte, []string) {
		t.Helper()
		out := filepath.Join(dir, name)
		if err := cmdRun([]string{"-store", runStore, "-bench", "astar", "-runs", "6",
			"-scale", "0.05", "-seed", "77", "-commit", "c0ffee", "-progress=false", "-o", out}); err != nil {
			t.Fatalf("szgate run -store: %v", err)
		}
		buf, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := filepath.Glob(filepath.Join(runStore, "blocks", "*", "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return buf, blocks
	}
	first, blocks1 := runArtifact("run1.json")
	second, blocks2 := runArtifact("run2.json")
	if len(blocks1) != 1 {
		t.Fatalf("first run -store wrote %d blocks, want 1", len(blocks1))
	}
	if !bytes.Equal(first, second) {
		t.Errorf("rerun over the store is not byte-identical:\n%s\nvs\n%s", first, second)
	}
	if strings.Join(blocks1, ",") != strings.Join(blocks2, ",") {
		t.Errorf("rerun over the store changed its blocks: %v -> %v", blocks1, blocks2)
	}
}
