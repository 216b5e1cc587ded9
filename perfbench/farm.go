package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/store"
)

// farmQuick is the farm path: an in-process loopback coordinator serves a
// store over real HTTP to two workers, and one client runs a closed loop.
// Each operation submits a quick campaign under a fresh seed, so every
// cell is a store miss (the cold phase), waits for it, fetches its merged
// artifact, then resubmits the same spec, so every cell is a store hit
// (the warm phase).
type farmQuick struct {
	cfg config
	v   int

	// The live farm, built by setup.
	dir       string
	st        *store.Store
	coordObs  *obs.Scope
	srv       *http.Server
	url       string
	transport *http.Transport
	rt        *farmTransport
	client    *campaign.Client
	stop      context.CancelFunc
	wg        sync.WaitGroup
	setups    int

	irInstrs    int
	campaigns   int
	cacheHits   uint64 // traced operations only
	cacheMisses uint64
	cold        []coldCampaign
	err         error
	// Untraced warm resubmissions, for campaign.resubmit_s.
	plainWarm []float64
}

// coldCampaign is what the check needs of one cold campaign.
type coldCampaign struct {
	spec   campaign.Spec
	digest string
}

// farmWorkers is how many workers the farm runs; their pool parallelism
// adds up to at most the host's processors.
const farmWorkers = 2

// statusPoll is how often the client polls a running campaign: fine
// enough that a cell's acknowledged completion is seen within a few
// milliseconds of it.
const statusPoll = 5 * time.Millisecond

func (f *farmQuick) name() string { return "farm-quick" }
func (f *farmQuick) variant() int { return f.v }

func (f *farmQuick) setup(ctx context.Context, tr *tracer, work string) error {
	n, err := warmCompile(tr, f.cfg.suite(), f.cfg.farmScale, suiteKeys)
	if err != nil {
		return err
	}
	f.irInstrs = n
	experiment.SetParallelism(max(1, runtime.NumCPU()/farmWorkers))

	root := tr.root(laneSetup, "perfbench", "setup.farm")
	defer root.end()
	f.setups++
	f.dir = filepath.Join(work, fmt.Sprintf("farm-%d", f.setups))
	sp := root.child("store", "store.open", "farm")
	f.st, err = store.Open(f.dir)
	sp.end()
	if err != nil {
		return err
	}
	f.coordObs = &obs.Scope{Metrics: obs.NewRegistry()}
	coord, err := campaign.NewCoordinator(campaign.CoordinatorOptions{Store: f.st, Obs: f.coordObs})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.url = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: coord.Handler()}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.srv.Serve(ln) // returns http.ErrServerClosed once teardown shuts it down
	}()

	// One transport for every client bounds the process to nproc
	// connections.
	f.transport = &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	f.rt = &farmTransport{base: f.transport, leases: map[uint64]leaseInfo{}}
	f.client = &campaign.Client{Server: f.url, HTTP: &http.Client{Transport: f.rt.actor(laneClient)}}
	wctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	for k := 0; k < farmWorkers; k++ {
		w := &campaign.Worker{
			Client: &campaign.Client{Server: f.url, HTTP: &http.Client{Transport: f.rt.actor(laneWorker + int64(k))}},
			Name:   fmt.Sprintf("w%d", k),
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := w.Run(wctx); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "perfbench: worker %s: %v\n", w.Name, err)
			}
		}()
	}
	return nil
}

// teardown stops the workers and the server and waits for all of them.
func (f *farmQuick) teardown() {
	if f.srv == nil {
		return
	}
	f.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.srv.Shutdown(ctx) // a timeout leaves only idle connections, which Close drops
	f.srv.Close()
	f.wg.Wait()
	f.transport.CloseIdleConnections()
	f.srv = nil
}

func (f *farmQuick) close() {
	f.teardown()
	experiment.SetParallelism(0)
}

func (f *farmQuick) spec() campaign.Spec {
	f.campaigns++
	return campaign.Spec{
		Benchmarks: f.cfg.names(),
		Config:     experiment.Config{Scale: f.cfg.farmScale, Level: compiler.O2},
		Runs:       f.cfg.farmRuns,
		// A fresh seed per campaign makes every cell a store miss.
		Seed: 5_000_000_000 + 1_000_000*uint64(f.v) + 1_000*uint64(f.campaigns),
	}
}

func (f *farmQuick) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf(format, args...)
	}
}

func (f *farmQuick) op(ctx context.Context, tr *tracer, i int) sample {
	var smp sample
	req0, refused0 := f.rt.requests.Load(), f.rt.refused.Load()
	requeues0 := f.coordObs.Metrics.Counter("campaign.requeues").Value()
	hits0, misses0 := experiment.CompileCacheStats()
	spec := f.spec()
	cells := len(spec.Benchmarks)

	// Cold phase.
	root := tr.root(laneClient, "perfbench", "farm.cold")
	f.rt.begin(root)
	start := time.Now()
	art, done, st, err := f.collect(ctx, spec)
	end := time.Now()
	root.endAt(end)
	smp.attempted += cells
	switch {
	case err != nil:
		smp.failed += cells
		smp.units = append(smp.units, unit{secs: math.Inf(1)})
		for k := 0; k < cells; k++ {
			smp.cells = append(smp.cells, math.Inf(1))
		}
	default:
		smp.failed += st.Failed
		u := unit{secs: end.Sub(start).Seconds(), cells: len(done)}
		for _, b := range spec.Benchmarks {
			if at, ok := done[b]; ok {
				smp.cells = append(smp.cells, at.Sub(start).Seconds())
			} else {
				smp.cells = append(smp.cells, math.Inf(1))
			}
		}
		if st.StoreHits != 0 {
			f.fail("cold campaign %s: %d store hits, want 0", st.ID, st.StoreHits)
		}
		if a, err := bench.ReadBytes(art); err != nil {
			f.fail("cold campaign %s: artifact: %v", st.ID, err)
		} else {
			for _, b := range a.Benchmarks {
				for _, n := range b.Instructions {
					u.instr += n
				}
			}
		}
		smp.units = append(smp.units, u)
		f.cold = append(f.cold, coldCampaign{spec, digest(art)})
	}

	// Warm phase: the same spec again.
	if err == nil {
		wroot := tr.root(laneClient, "perfbench", "farm.warm")
		f.rt.begin(wroot)
		wstart := time.Now()
		warm, _, wst, werr := f.collect(ctx, spec)
		wend := time.Now()
		wroot.endAt(wend)
		smp.attempted++
		switch {
		case werr != nil:
			smp.failed++
			smp.warm = append(smp.warm, math.Inf(1))
		default:
			smp.warm = append(smp.warm, wend.Sub(wstart).Seconds())
			if tr == nil {
				f.plainWarm = append(f.plainWarm, wend.Sub(wstart).Seconds())
			}
			if wst.StoreHits != wst.Cells {
				f.fail("warm campaign %s: %d store hits of %d cells", wst.ID, wst.StoreHits, wst.Cells)
			}
			if !bytes.Equal(warm, art) {
				f.fail("warm campaign %s: merged artifact differs from the cold one", wst.ID)
			}
		}
	}
	f.rt.begin(ref{})
	if tr != nil {
		hits1, misses1 := experiment.CompileCacheStats()
		f.cacheHits += hits1 - hits0
		f.cacheMisses += misses1 - misses0
	}
	smp.attempted += int(f.rt.requests.Load() - req0)
	smp.failed += int(f.rt.refused.Load() - refused0)
	smp.failed += int(f.coordObs.Metrics.Counter("campaign.requeues").Value() - requeues0)
	return smp
}

// collect submits a campaign, polls it to a terminal state noting when
// each cell is first seen done, and fetches its merged artifact.
func (f *farmQuick) collect(ctx context.Context, spec campaign.Spec) ([]byte, map[string]time.Time, campaign.Status, error) {
	resp, err := f.client.Submit(ctx, spec)
	if err != nil {
		return nil, nil, campaign.Status{}, err
	}
	done := map[string]time.Time{}
	var st campaign.Status
	for {
		st, err = f.client.Status(ctx, resp.ID)
		if err != nil {
			return nil, nil, st, err
		}
		now := time.Now()
		for _, c := range st.Detail {
			if _, seen := done[c.Bench]; !seen && c.State == campaign.StateDone {
				done[c.Bench] = now
			}
		}
		if st.State != campaign.StateRunning {
			break
		}
		time.Sleep(statusPoll)
	}
	if st.State != campaign.StateDone {
		return nil, nil, st, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	art, err := f.client.Artifact(ctx, resp.ID)
	return art, done, st, err
}

// check compares every cold campaign's merged artifact with a local
// bench.Collect of the same spec, byte for byte.
func (f *farmQuick) check(ctx context.Context) error {
	if f.err != nil {
		return f.err
	}
	if len(f.cold) == 0 {
		return fmt.Errorf("no campaign completed")
	}
	experiment.SetParallelism(0)
	for _, c := range f.cold {
		opts, err := c.spec.CollectOptions()
		if err != nil {
			return err
		}
		art, err := bench.Collect(ctx, opts)
		if err != nil {
			return fmt.Errorf("local reference collection: %w", err)
		}
		enc, err := art.Encode()
		if err != nil {
			return err
		}
		if d := digest(enc); d != c.digest {
			return fmt.Errorf("campaign seed %d: merged artifact %.16s differs from local collection %.16s",
				c.spec.Seed, c.digest, d)
		}
	}
	return nil
}

func (f *farmQuick) summary(ph phase) []string {
	return []string{
		fmtTiming("campaign_s", ph.secs()),
		fmtTiming("resubmit_s", ph.warm),
	}
}

func (f *farmQuick) layers(ctx context.Context, tr *tracer, work string) (map[string]metric, error) {
	scraped, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	journal, err := dirBytes(filepath.Join(f.dir, "campaigns"))
	if err != nil {
		return nil, err
	}
	first := f.cold[0].spec
	var firstResults []experiment.RunResult
	var blocks []loggedCell
	for _, e := range f.st.Index() {
		res := f.st.Get(e.Key, e.Runs, e.SeedBase)
		blocks = append(blocks, loggedCell{e.Key, e.Runs, e.SeedBase, res})
	}
	for _, c := range first.Cells() {
		firstResults = append(firstResults, f.st.Get(c.StoreKey, c.Runs, c.SeedBase)...)
	}
	m, err := replayStore(tr, filepath.Join(work, "replay"), blocks)
	if err != nil {
		return nil, err
	}
	compileLayers(m, tr, suiteKeys, f.irInstrs)
	m["experiment.compile_cache.hits"] = metric{float64(f.cacheHits), "count"}
	m["experiment.compile_cache.misses"] = metric{float64(f.cacheMisses), "count"}
	simCounts(m, firstResults)
	m["campaign.journal_bytes"] = metric{float64(journal), "bytes"}
	for _, n := range []string{"submit", "acquire", "complete", "artifact"} {
		timing(m, "campaign."+n+"_s", "s", tr.durations("campaign."+n, ""))
	}
	f.rt.mu.Lock()
	timing(m, "campaign.queue_wait_s", "s", f.rt.queueWaits)
	f.rt.mu.Unlock()
	timing(m, "worker.compute_s", "s", tr.durations("worker.compute", ""))
	m["campaign.resubmit_s"] = metric{median(f.plainWarm), "s"}
	acq, grants := f.rt.acquires.Load(), f.rt.grants.Load()
	if acq > 0 {
		m["campaign.acquire_hit_ratio"] = metric{float64(grants) / float64(acq), "ratio"}
	}
	m["campaign.heartbeats"] = metric{float64(f.rt.heartbeats.Load()), "count"}
	m["campaign.requeues"] = metric{scraped["sz_campaign_requeues"], "count"}
	return m, nil
}

// scrape reads the coordinator's /metrics exposition.
func (f *farmQuick) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: f.transport}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParseProm(body)
}

// farmTransport wraps the HTTP transport of every farm client. It counts
// exchanges and refusals (any non-2xx status, 429 included) always; while
// an operation is traced it also records a span per exchange, and from the
// lease grants it sees, each cell's queue wait (campaign submit to lease
// grant) and the worker's compute time (grant to complete request).
type farmTransport struct {
	base                         http.RoundTripper
	requests, refused            atomic.Int64
	acquires, grants, heartbeats atomic.Int64

	mu     sync.Mutex
	cur    ref       // the operation in flight; zero when untraced
	submit time.Time // when the operation's campaign was submitted
	leases map[uint64]leaseInfo
	// queueWaits are the traced cells' waits from campaign submit to lease
	// grant. They are waits, not calls, so they are kept out of the spans
	// and their layer self times.
	queueWaits []float64
}

type leaseInfo struct {
	op      ref
	granted time.Time
}

// begin makes op the operation in flight.
func (t *farmTransport) begin(op ref) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = op
}

// actor returns the round tripper of one client, whose spans go on lane.
func (t *farmTransport) actor(lane int64) http.RoundTripper {
	return actorTransport{t, lane}
}

type actorTransport struct {
	t    *farmTransport
	lane int64
}

func (a actorTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := a.t
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	t.requests.Add(1)
	if err != nil || resp.StatusCode/100 != 2 {
		t.refused.Add(1)
	}
	t.mu.Lock()
	op := t.cur
	t.mu.Unlock()
	if err != nil || op.t == nil {
		return resp, err
	}
	path := req.URL.Path
	switch {
	case req.Method == http.MethodPost && path == "/v1/campaigns":
		t.mu.Lock()
		t.submit = start
		t.mu.Unlock()
		op.record(a.lane, "campaign", "campaign.submit", "", start, end)
	case req.Method == http.MethodGet && strings.HasSuffix(path, "/artifact"):
		op.record(a.lane, "campaign", "campaign.artifact", "", start, end)
	case req.Method == http.MethodGet && strings.HasPrefix(path, "/v1/campaigns/"):
		op.record(a.lane, "campaign", "campaign.status", "", start, end)
	case req.Method == http.MethodPost && path == "/v1/leases":
		body, err := a.acquired(resp.Body, op, start, end)
		if err != nil {
			return nil, err
		}
		resp.Body = body
	case req.Method == http.MethodPost && strings.HasSuffix(path, "/heartbeat"):
		t.heartbeats.Add(1)
		if l, ok := t.lease(path); ok {
			l.op.record(a.lane, "campaign", "campaign.heartbeat", "", start, end)
		}
	case req.Method == http.MethodPost && strings.HasSuffix(path, "/complete"):
		if l, ok := t.lease(path); ok {
			l.op.record(a.lane, "experiment", "worker.compute", "", l.granted, start)
			l.op.record(a.lane, "campaign", "campaign.complete", "", start, end)
		}
	}
	return resp, err
}

// acquired records an acquire exchange. One that granted a lease belongs to
// the operation in flight; an idle poll is an operation of its own.
func (a actorTransport) acquired(body io.ReadCloser, op ref, start, end time.Time) (io.ReadCloser, error) {
	t := a.t
	buf, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		return nil, err
	}
	t.acquires.Add(1)
	var ar campaign.AcquireResponse
	if json.Unmarshal(buf, &ar) == nil && ar.Lease != nil {
		t.grants.Add(1)
		t.mu.Lock()
		t.leases[ar.Lease.ID] = leaseInfo{op: op, granted: end}
		submitted := t.submit
		t.mu.Unlock()
		op.record(a.lane, "campaign", "campaign.acquire", "grant", start, end)
		t.mu.Lock()
		t.queueWaits = append(t.queueWaits, end.Sub(submitted).Seconds())
		t.mu.Unlock()
	} else {
		op.t.rootAt(a.lane, "campaign", "campaign.acquire", start).endAt(end)
	}
	return io.NopCloser(bytes.NewReader(buf)), nil
}

// lease finds the lease named by a /v1/leases/{id}/... path.
func (t *farmTransport) lease(path string) (leaseInfo, bool) {
	var id uint64
	if _, err := fmt.Sscanf(strings.TrimPrefix(path, "/v1/leases/"), "%d/", &id); err != nil {
		return leaseInfo{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[id]
	return l, ok
}
