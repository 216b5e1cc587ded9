package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/gate"
	"repro/internal/machine"
)

// suiteNative is the `szgate run` path: each operation collects the whole
// suite, native, at O2 on the compiled engine, under two master seeds, and
// compares the pair with gate.Compare.
type suiteNative struct {
	cfg  config
	v    int
	refs digestTable
	out  outputs
	log  *cellLog

	irInstrs     int
	firstOpCells []loggedCell
	// Traced operations only.
	hostRuns    []float64
	instrRuns   []uint64
	cactusHost  float64
	cactusInstr uint64
	collectWall float64
	cacheHits   uint64
	cacheMisses uint64
}

var suiteKeys = []compileKey{{compiler.O2, false}}

func (s *suiteNative) name() string          { return "suite-native" }
func (s *suiteNative) variant() int          { return s.v }
func (s *suiteNative) seenOutputs() *outputs { return &s.out }
func (s *suiteNative) teardown()             {}
func (s *suiteNative) close()                {}

// seeds are the two master seeds of the input set; they are far enough
// apart that the two collections share no run seed.
func (s *suiteNative) seeds() [2]uint64 {
	return [2]uint64{10_000 * uint64(2*s.v+1), 10_000 * uint64(2*s.v+2)}
}

func (s *suiteNative) key(part string) string {
	return fingerprint("suite-native", "scale="+fmt.Sprint(s.cfg.suiteScale), "runs="+fmt.Sprint(s.cfg.suiteRuns),
		"benchmarks="+fmt.Sprint(len(s.cfg.suite())), "input="+fmt.Sprint(s.v), part)
}

func (s *suiteNative) setup(ctx context.Context, tr *tracer, work string) error {
	s.log = &cellLog{keep: true}
	n, err := warmCompile(tr, s.cfg.suite(), s.cfg.suiteScale, suiteKeys)
	s.irInstrs = n
	return err
}

func (s *suiteNative) op(ctx context.Context, tr *tracer, i int) sample {
	var smp sample
	root := tr.root(laneClient, "perfbench", "suite.op")
	defer root.end()
	ctx = experiment.WithCellStore(ctx, s.log)
	hits0, misses0 := experiment.CompileCacheStats()
	suite := s.cfg.suite()
	var arts []*bench.Artifact
	for j, seed := range s.seeds() {
		mark := s.log.mark()
		start := time.Now()
		sp := root.childOn(root.lane, "bench", "bench.collect", "", start)
		art, err := bench.Collect(ctx, bench.CollectOptions{
			Suite:      suite,
			Config:     experiment.Config{Scale: s.cfg.suiteScale, Level: compiler.O2},
			Runs:       s.cfg.suiteRuns,
			Seed:       seed,
			Throughput: tr != nil,
		})
		end := time.Now()
		sp.endAt(end)
		runs := len(suite) * s.cfg.suiteRuns
		smp.attempted += runs
		if err != nil {
			smp.failed += runs
			smp.units = append(smp.units, unit{secs: math.Inf(1)})
			for range suite {
				smp.cells = append(smp.cells, math.Inf(1))
			}
			continue
		}
		at, instr := s.log.since(mark)
		smp.units = append(smp.units, unit{end.Sub(start).Seconds(), instr, len(at)})
		smp.cells = append(smp.cells, latencies(at, start)...)
		if tr != nil {
			s.traceCollect(sp, art, start, at, end)
		}
		sp = root.child("bench", "bench.encode", "")
		enc, err := art.Encode()
		sp.end()
		if err != nil {
			s.out.fail(err)
			continue
		}
		part := fmt.Sprintf("artifact-%c", 'a'+j)
		s.out.add(s.key(part), digest(enc))
		s.out.add(s.key(part+"-counts"), countsText(art.Metrics.Counters))
		arts = append(arts, art)
	}
	if len(arts) == 2 {
		smp.attempted++
		sp := root.child("gate", "gate.compare", "")
		rep, err := gate.Compare(arts[0], arts[1], gate.Options{})
		sp.end()
		if err != nil {
			smp.failed++
		} else {
			s.out.add(s.key("compare"), digest([]byte(rep.Table())))
		}
	}
	if s.firstOpCells == nil {
		s.firstOpCells = s.log.takeCells()
	}
	if tr != nil {
		hits1, misses1 := experiment.CompileCacheStats()
		s.cacheHits += hits1 - hits0
		s.cacheMisses += misses1 - misses0
	}
	return smp
}

// traceCollect records a traced collection's cells as spans — bench.Collect
// collects benchmarks one after another, so each cell runs from the
// previous cell's completion to its own — and keeps the host time of every
// run, which Throughput collection measures inside Compiled.Run. The host
// times are stripped afterwards so the artifact stays golden.
func (s *suiteNative) traceCollect(sp ref, art *bench.Artifact, start time.Time, done []time.Time, end time.Time) {
	prev := start
	for k, at := range done {
		name := ""
		if k < len(art.Benchmarks) {
			name = art.Benchmarks[k].Name
		}
		sp.record(sp.lane, "experiment", "experiment.cell", name, prev, at)
		prev = at
	}
	s.collectWall += end.Sub(start).Seconds()
	for i := range art.Benchmarks {
		b := &art.Benchmarks[i]
		for r, h := range b.HostSeconds {
			s.hostRuns = append(s.hostRuns, h)
			s.instrRuns = append(s.instrRuns, b.Instructions[r])
			if b.Name == "cactusADM" {
				s.cactusHost += h
				s.cactusInstr += b.Instructions[r]
			}
		}
		b.HostSeconds = nil
	}
}

// countsText renders the golden machine-counter summary of an artifact so
// a mismatch names the counts, not just a digest.
func countsText(c machine.Counters) string {
	return fmt.Sprintf("instr=%d cycles=%d l1i=%d l1d=%d l2=%d l3=%d tlb=%d mispredict=%d",
		c.Instructions, c.Cycles, c.L1IMisses, c.L1DMisses, c.L2Misses, c.L3Misses, c.TLBMisses,
		c.DirectionMispredicts+c.BTBMispredicts)
}

func (s *suiteNative) check(ctx context.Context) error { return s.out.check(s.refs) }

func (s *suiteNative) summary(ph phase) []string {
	return []string{fmtTiming("collect_s", ph.secs())}
}

func (s *suiteNative) layers(ctx context.Context, tr *tracer, work string) (map[string]metric, error) {
	m, err := replayStore(tr, filepath.Join(work, "replay"), s.firstOpCells)
	if err != nil {
		return nil, err
	}
	compileLayers(m, tr, suiteKeys, s.irInstrs)
	m["experiment.compile_cache.hits"] = metric{float64(s.cacheHits), "count"}
	m["experiment.compile_cache.misses"] = metric{float64(s.cacheMisses), "count"}
	var runS float64
	for _, h := range s.hostRuns {
		runS += h
	}
	var instr uint64
	for _, n := range s.instrRuns {
		instr += n
	}
	m["experiment.run_s"] = metric{runS, "s"}
	timing(m, "experiment.run_ms", "ms", s.hostRuns)
	m["experiment.ns_per_instr"] = metric{runS * 1e9 / float64(instr), "ns"}
	if s.cactusInstr > 0 {
		m["experiment.ns_per_instr.cactusADM"] = metric{s.cactusHost * 1e9 / float64(s.cactusInstr), "ns"}
	}
	m["experiment.pool_busy_ratio"] = metric{runS / (s.collectWall * float64(experiment.Parallelism())), "ratio"}
	var results []experiment.RunResult
	for _, c := range s.firstOpCells {
		results = append(results, c.results...)
	}
	simCounts(m, results)
	timing(m, "gate.compare_s", "s", tr.durations("gate.compare", ""))
	timing(m, "bench.encode_s", "s", tr.durations("bench.encode", ""))
	return m, nil
}
