package campaign

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/store"
)

// acquireLog records when each lease request reached the coordinator.
type acquireLog struct {
	mu sync.Mutex
	at []time.Time
}

func (a *acquireLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/leases" {
			a.mu.Lock()
			a.at = append(a.at, time.Now())
			a.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

// since returns the recorded acquire times at or after t.
func (a *acquireLog) since(t time.Time) []time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []time.Time
	for _, at := range a.at {
		if !at.Before(t) {
			out = append(out, at)
		}
	}
	return out
}

// TestWorkerIdleBackoff pins the worker's geometric idle backoff against a
// real loopback coordinator: a worker whose lease just completed picks up
// a new campaign's cell within Poll/4; left idle, its delay grows to Poll
// and stays there, bounding its acquire rate; and the next grant resets
// the delay.
func TestWorkerIdleBackoff(t *testing.T) {
	const poll = 400 * time.Millisecond
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	c, err := NewCoordinator(CoordinatorOptions{Store: st, Obs: obs.NewScope()})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	var acquires acquireLog
	ts := httptest.NewServer(acquires.wrap(c.Handler()))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{Client: NewClient(ts.URL), Name: "idle", Poll: poll, Obs: obs.NewScope()}
	exited := make(chan error, 1)
	go func() { exited <- w.Run(ctx) }()
	defer func() {
		cancel()
		<-exited
	}()

	// runCampaign submits a one-cell campaign under a fresh seed (so the
	// cell is a store miss and must be leased), waits for it to finish,
	// and returns its queue wait: submission to first grant.
	seed := uint64(7_000_000)
	runCampaign := func() time.Duration {
		t.Helper()
		seed += 1000
		id, _, _, err := c.Submit(Spec{
			Benchmarks: []string{"astar"}, Config: experiment.Config{Scale: 0.05},
			Runs: 1, Seed: seed,
		})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		deadline := time.Now().Add(time.Minute)
		for {
			st, _ := c.Status(id)
			if st.State == StateDone {
				break
			}
			if st.State != StateRunning || time.Now().After(deadline) {
				t.Fatalf("campaign %s: %+v", id, st)
			}
			time.Sleep(time.Millisecond)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		camp := c.byID[id]
		return camp.cells[0].firstGrant.Sub(camp.submitted)
	}

	runCampaign()
	if wait := runCampaign(); wait > poll/4 {
		t.Fatalf("cell submitted right after a completion waited %v for a lease, want <= %v", wait, poll/4)
	}

	// Idle window: the delay doubles from Poll/64 to Poll, so 3*Poll holds
	// about 9 acquires (at most 12 under any jitter), not 3*64.
	idleStart := time.Now()
	time.Sleep(3 * poll)
	idle := acquires.since(idleStart)
	if len(idle) > 12 {
		t.Fatalf("%d acquires in an idle window of %v, want <= 12", len(idle), 3*poll)
	}
	// By the last Poll of the window the delay sits at Poll, which jitter
	// shortens to no less than Poll/2.
	for i := 1; i < len(idle); i++ {
		if gap := idle[i].Sub(idle[i-1]); idle[i].Sub(idleStart) > 2*poll && gap < poll/2 {
			t.Fatalf("acquire %d came %v after the previous one, %v into the idle window; want >= %v once the delay reached Poll",
				i, gap, idle[i].Sub(idleStart), poll/2)
		}
	}

	// A grant resets the delay: after one more cell, the next submission
	// is again picked up within Poll/4.
	runCampaign()
	if wait := runCampaign(); wait > poll/4 {
		t.Fatalf("after a grant the delay did not reset: queue wait %v, want <= %v", wait, poll/4)
	}
}

// TestWaitEventsPastCursor pins the follow loop's wakeup: when the event
// log is already past the caller's cursor, the wait returns at once rather
// than waiting for some later change; an append made while waiting wakes
// the waiter; and a cancelled context ends the wait.
func TestWaitEventsPastCursor(t *testing.T) {
	c, _, _ := newFarm(t, CoordinatorOptions{Obs: obs.NewScope()})
	id, _, _, err := c.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	c.mu.Lock()
	camp := c.byID[id]
	seq := camp.events.seq
	c.mu.Unlock()
	if seq == 0 {
		t.Fatalf("submission logged no events")
	}

	ctx := context.Background()
	start := time.Now()
	if !c.waitEvents(ctx, id, seq-1) {
		t.Fatalf("wait reported a cancelled context")
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("wait with the log past the cursor took %v, want well under 1s", d)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		c.mu.Lock()
		c.eventLocked(camp, "test event")
		c.mu.Unlock()
	}()
	start = time.Now()
	c.waitEvents(ctx, id, seq)
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("wait for an append took %v, want well under 1s", d)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if c.waitEvents(cancelled, id, seq+1) {
		t.Fatalf("wait under a cancelled context reported true")
	}
}
