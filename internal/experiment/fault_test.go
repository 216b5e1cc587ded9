package experiment

// Recovery-path tests: every failure mode the engine claims to survive —
// worker panics, injected transient faults, watchdog timeouts, result
// store failures — is exercised here, mostly through the deterministic
// fault-injection harness (internal/faultinject). CI runs these (plus the
// resume tests) as a dedicated job: -run 'Fault|Panic|Resume'.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/faultinject"
	"repro/internal/interp"
)

// TestPoolPanicRecoveredCancelsWorkers is the panic-isolation contract: a
// panicking work item is recovered into a *PanicError carrying the cell
// label and item index, the rest of the pool is cancelled (blocked
// siblings wake up instead of deadlocking), and the panic is the error
// ForEach reports.
func TestPoolPanicRecoveredCancelsWorkers(t *testing.T) {
	pool := NewPool(8)
	// bad is the first item of worker 1's shard (64/8 = 8 items per
	// worker): every other worker parks on its own first item, so only the
	// panic can unblock them — reaching the end of this test proves the
	// recovered panic cancelled the pool.
	const n, bad = 64, 8
	err := pool.ForEachLabeled(context.Background(), "panic-cell", n, func(ctx context.Context, i int) error {
		if i == bad {
			panic("boom")
		}
		// Every other item parks until cancellation: if the panic failed
		// to cancel the pool, this test would hang.
		<-ctx.Done()
		return ctx.Err()
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T), want *PanicError", err, err)
	}
	if pe.Label != "panic-cell" || pe.Index != bad {
		t.Errorf("PanicError label=%q index=%d, want %q/%d", pe.Label, pe.Index, "panic-cell", bad)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError value=%v stack=%d bytes, want boom with a stack", pe.Value, len(pe.Stack))
	}
	if !strings.Contains(err.Error(), "panic-cell") {
		t.Errorf("error text %q does not name the cell", err)
	}
}

// TestPoolPanicSequential covers the workers<=1 fast path, which recovers
// panics on the caller's goroutine.
func TestPoolPanicSequential(t *testing.T) {
	pool := NewPool(1)
	ran := 0
	err := pool.ForEach(context.Background(), 5, func(ctx context.Context, i int) error {
		ran++
		if i == 2 {
			panic(i)
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 2 {
		t.Fatalf("error %v, want *PanicError at index 2", err)
	}
	if ran != 3 {
		t.Errorf("ran %d items, want 3 (sequential stop at the panic)", ran)
	}
}

// TestFaultInjectedPanicFailsCellNotProcess drives a panic through the
// fault injector into a real cell: the sweep fails with a *CellError
// wrapping the *PanicError, with no retry (panics are deterministic) and
// without killing the process.
func TestFaultInjectedPanicFailsCellNotProcess(t *testing.T) {
	defer faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SitePoolWorker, Nth: 3, Kind: faultinject.KindPanic,
	})()
	defer ResetRetryReport()
	b := subset(t, "astar")[0]
	cc, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cc.Collect(context.Background(), 6, 1)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v (%T), want *CellError", err, err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cell error %v does not wrap a *PanicError", err)
	}
	if ce.Attempts != 1 {
		t.Errorf("panicking cell took %d attempts, want 1 (panics are not retried)", ce.Attempts)
	}
	if !strings.Contains(ce.Label, "astar") {
		t.Errorf("cell label %q does not identify the benchmark", ce.Label)
	}
}

// TestFaultPanicAtCellSetupIsolated arms a panic at the cell-start site,
// which fires on the caller's goroutine (outside any pool worker) — the
// collectOnce boundary must still convert it to an error.
func TestFaultPanicAtCellSetupIsolated(t *testing.T) {
	defer faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SiteCellStart, Nth: 1, Kind: faultinject.KindPanic,
	})()
	defer ResetRetryReport()
	b := subset(t, "astar")[0]
	cc, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cc.Collect(context.Background(), 2, 1)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T), want a recovered *PanicError", err, err)
	}
	if pe.Index != -1 {
		t.Errorf("setup panic recorded index %d, want -1", pe.Index)
	}
}

// TestFaultTransientRetrySucceeds injects a one-shot transient error into
// a pool worker: the first attempt fails, the retry succeeds, the retry is
// visible in RetryReport, and the samples are identical to an undisturbed
// collection (determinism survives the retry).
func TestFaultTransientRetrySucceeds(t *testing.T) {
	b := subset(t, "astar")[0]
	cc, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cc.Collect(context.Background(), 4, 7)
	if err != nil {
		t.Fatal(err)
	}

	ResetRetryReport()
	deactivate := faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SitePoolWorker, Nth: 2, Kind: faultinject.KindError,
	})
	defer deactivate()
	got, err := cc.Collect(context.Background(), 4, 7)
	if err != nil {
		t.Fatalf("transient fault was not retried away: %v", err)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Error("samples after a retried transient fault differ from an undisturbed collection")
	}
	rep := RetryReport()
	if !strings.Contains(rep, "astar") || !strings.Contains(rep, "2 attempts") {
		t.Errorf("RetryReport %q does not record the retried cell", rep)
	}
	deactivate()
	ResetRetryReport()
}

// TestFaultTransientRetriesExhausted caps retries at zero and checks the
// transient failure surfaces as a *CellError that unwraps to the injected
// fault.
func TestFaultTransientRetriesExhausted(t *testing.T) {
	defer faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SitePoolWorker, Nth: 1, Kind: faultinject.KindError,
	})()
	SetCellRetries(0)
	defer SetCellRetries(-1)
	defer ResetRetryReport()
	b := subset(t, "astar")[0]
	cc, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cc.Collect(context.Background(), 2, 1)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Attempts != 1 {
		t.Fatalf("error %v, want *CellError after 1 attempt", err)
	}
	var fe *faultinject.Error
	if !errors.As(err, &fe) {
		t.Fatalf("cell error %v does not unwrap to the injected fault", err)
	}
}

// TestFaultWatchdogTimeoutRetried hangs the first work item until the cell
// watchdog fires; the timeout is classified transient, the retry runs
// without the (one-shot) fault, and the samples match a clean collection.
func TestFaultWatchdogTimeoutRetried(t *testing.T) {
	b := subset(t, "astar")[0]
	cc, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cc.Collect(context.Background(), 3, 21)
	if err != nil {
		t.Fatal(err)
	}

	ResetRetryReport()
	deactivate := faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SitePoolWorker, Nth: 1, Kind: faultinject.KindHang,
	})
	defer deactivate()
	SetCellTimeout(300 * time.Millisecond)
	defer SetCellTimeout(0)
	got, err := cc.Collect(context.Background(), 3, 21)
	if err != nil {
		t.Fatalf("watchdog timeout was not retried away: %v", err)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Error("samples after a watchdog-retried cell differ from an undisturbed collection")
	}
	if !strings.Contains(RetryReport(), "astar") {
		t.Errorf("RetryReport %q does not record the timed-out cell", RetryReport())
	}
	deactivate()
	ResetRetryReport()
}

// TestFaultCompileCacheNotPoisoned panics inside the compile cache: the
// first CompileBench fails with an error (not a process death) and the
// failed entry is evicted, so the next CompileBench of the same cell
// succeeds instead of replaying the cached failure.
func TestFaultCompileCacheNotPoisoned(t *testing.T) {
	deactivate := faultinject.Activate(1, faultinject.Fault{
		Site: faultinject.SiteCompileCache, Nth: 1, Kind: faultinject.KindPanic,
	})
	defer deactivate()
	b := subset(t, "libquantum")[0]
	// A scale×level no other test compiles, so the cache is cold here.
	cfg := Config{Scale: testScale * 0.7, Level: compiler.O1}
	if _, err := CompileBench(b, cfg); err == nil {
		t.Fatal("CompileBench succeeded through an injected compile panic")
	} else if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("compile error %v does not report the panic", err)
	}
	deactivate()
	if _, err := CompileBench(b, cfg); err != nil {
		t.Fatalf("compile cache still poisoned after the fault: %v", err)
	}
}

// TestFaultStepBudgetStructuredError (S3): a budget-exhausted cell fails
// the sweep cleanly with a *CellError that unwraps to the structured
// *interp.StepBudgetError — label, attempt count, and steps retired all
// recoverable by the caller.
func TestFaultStepBudgetStructuredError(t *testing.T) {
	defer ResetRetryReport()
	b := subset(t, "astar")[0]
	cc, err := CompileBench(b, Config{Scale: testScale, Level: compiler.O2, MaxSteps: 50})
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	withParallelism(t, 4, func() {
		_, serr = cc.Collect(context.Background(), 8, 1)
	})
	var ce *CellError
	if !errors.As(serr, &ce) {
		t.Fatalf("error %v (%T), want *CellError", serr, serr)
	}
	if !strings.Contains(ce.Label, "astar") {
		t.Errorf("cell label %q does not identify the benchmark", ce.Label)
	}
	if ce.Attempts != 1 {
		t.Errorf("deterministic budget failure took %d attempts, want 1 (no retry)", ce.Attempts)
	}
	var be *interp.StepBudgetError
	if !errors.As(serr, &be) {
		t.Fatalf("cell error %v does not unwrap to *interp.StepBudgetError", serr)
	}
	if be.Budget != 50 || be.Steps < be.Budget {
		t.Errorf("StepBudgetError steps=%d budget=%d, want steps >= budget == 50", be.Steps, be.Budget)
	}
	if !errors.Is(serr, interp.ErrMaxSteps) {
		t.Error("cell error does not match interp.ErrMaxSteps")
	}
}
