package experiment

// Resume tests: an interrupted sweep, resumed against the same result
// store, must reproduce the uninterrupted sweep exactly — at any worker
// count — and no fault in the store write may fail a sweep. The store is
// the in-memory memSource; reopen stands in for reopening a store
// directory between runs. On-disk corruption is covered by the store's own
// tests and by the artifact-level resume tests in internal/bench.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/faultinject"
)

// TestResumeCheckpointRoundTrip stores one cell and replays it: the
// replayed SampleSet must be deeply equal to the fresh one, and the
// store's counters must account for both directions.
func TestResumeCheckpointRoundTrip(t *testing.T) {
	src := newMemSource()
	b := subset(t, "astar")[0]
	cc, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithCellStore(context.Background(), src)
	fresh, err := cc.Collect(ctx, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	if src.stores != 1 || src.hits != 0 {
		t.Fatalf("stats after first collect: stored=%d reused=%d, want 1/0", src.stores, src.hits)
	}
	replayed, err := cc.Collect(ctx, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, fresh) {
		t.Error("replayed cell differs from the fresh collection")
	}
	if src.stores != 1 || src.hits != 1 {
		t.Fatalf("stats after replay: stored=%d reused=%d, want 1/1", src.stores, src.hits)
	}
	// A different seed base is a different cell — never served from the
	// stored one.
	other, err := cc.Collect(ctx, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other.Seconds, fresh.Seconds) {
		t.Error("different seed base replayed the stored cell")
	}
}

// TestResumeCheckpointStoreFaultIsHarmless injects a failure into the
// store write: the sweep still succeeds (the store is an optimization,
// not a dependency), nothing is stored, and the next run simply stores
// the cell again.
func TestResumeCheckpointStoreFaultIsHarmless(t *testing.T) {
	src := newMemSource()
	b := subset(t, "astar")[0]
	cc, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindPanic} {
		deactivate := faultinject.Activate(1, faultinject.Fault{
			Site: faultinject.SiteCellStore, Nth: 1, Kind: kind,
		})
		_, err = cc.Collect(WithCellStore(context.Background(), src), 3, 51)
		deactivate()
		if err != nil {
			t.Fatalf("store fault %v failed the sweep: %v", kind, err)
		}
		if len(src.cells) != 0 {
			t.Fatalf("store fault %v left cells behind: %d", kind, len(src.cells))
		}
	}
	// With no plan active the cell stores normally.
	if _, err := cc.Collect(WithCellStore(context.Background(), src), 3, 51); err != nil {
		t.Fatal(err)
	}
	if src.stores != 1 {
		t.Fatalf("stored %d cells after recovery, want 1", src.stores)
	}
}

// TestResumeAfterDrainMatchesUninterrupted is the acceptance test for the
// whole crash-safety story: a sweep is drained mid-flight at a
// deterministic point (a KindHook fault raising the drain flag, standing
// in for the first SIGINT), completed cells land in the store, and a
// resumed run — at a different worker count — produces a result deeply
// equal to an uninterrupted sweep.
func TestResumeAfterDrainMatchesUninterrupted(t *testing.T) {
	opts := NormalityOptions{
		Scale: testScale,
		Runs:  4,
		Seed:  61,
		Suite: subset(t, "astar", "libquantum"),
	}

	var uninterrupted *NormalityResult
	var err error
	withParallelism(t, 1, func() {
		uninterrupted, err = Normality(context.Background(), opts)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: drain raised at the start of the 2nd cell (of 4:
	// two configurations per benchmark). The in-flight cell finishes and
	// is stored; the remaining benchmark is never started.
	src := newMemSource()
	ctx, drain := WithDrain(WithCellStore(context.Background(), src))
	deactivate := faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SiteCellStart, Nth: 2, Kind: faultinject.KindHook, Hook: drain,
	})
	withParallelism(t, 1, func() {
		_, err = Normality(ctx, opts)
	})
	deactivate()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("drained sweep returned %v, want ErrStopped", err)
	}
	if !strings.Contains(err.Error(), "-resume") {
		t.Errorf("drain error %q does not point at -resume", err)
	}
	stored := src.stores
	if stored == 0 || stored >= 4 {
		t.Fatalf("drained sweep stored %d of 4 cells, want a strict subset", stored)
	}

	// Resume at a different worker count: stored cells replay, the rest
	// collect fresh, and the result matches the uninterrupted sweep.
	src2 := src.reopen()
	var resumed *NormalityResult
	withParallelism(t, 4, func() {
		resumed, err = Normality(WithCellStore(context.Background(), src2), opts)
	})
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if !reflect.DeepEqual(resumed, uninterrupted) {
		t.Error("resumed sweep differs from the uninterrupted sweep")
	}
	if src2.hits != stored || src2.stores != 4-stored {
		t.Errorf("resume stats stored=%d reused=%d, want %d/%d", src2.stores, src2.hits, 4-stored, stored)
	}

	// A third pass replays everything.
	src3 := src2.reopen()
	var replayed *NormalityResult
	withParallelism(t, 2, func() {
		replayed, err = Normality(WithCellStore(context.Background(), src3), opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, uninterrupted) {
		t.Error("fully-replayed sweep differs from the uninterrupted sweep")
	}
	if src3.stores != 0 || src3.hits != 4 {
		t.Errorf("replay stats stored=%d reused=%d, want 0/4", src3.stores, src3.hits)
	}
}

// TestResumeDrainStopsParallelSweepCleanly drains a parallel sweep: the
// pool must report ErrStopped without cancelling in-flight cells, and the
// stored subset must be valid cells an undisturbed resume can use.
func TestResumeDrainStopsParallelSweepCleanly(t *testing.T) {
	opts := NormalityOptions{
		Scale: testScale,
		Runs:  3,
		Seed:  71,
		Suite: subset(t, "astar", "libquantum", "mcf"),
	}
	src := newMemSource()
	ctx, drain := WithDrain(WithCellStore(context.Background(), src))
	deactivate := faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SiteCellStart, Nth: 1, Kind: faultinject.KindHook, Hook: drain,
	})
	var err error
	withParallelism(t, 3, func() {
		_, err = Normality(ctx, opts)
	})
	deactivate()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("drained parallel sweep returned %v, want ErrStopped", err)
	}
	// Whatever was stored must replay cleanly on resume.
	var resumed, fresh *NormalityResult
	withParallelism(t, 1, func() {
		resumed, err = Normality(WithCellStore(context.Background(), src.reopen()), opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	withParallelism(t, 1, func() {
		fresh, err = Normality(context.Background(), opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, fresh) {
		t.Error("resume after parallel drain differs from a fresh sweep")
	}
}
