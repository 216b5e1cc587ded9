package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/compiler"
	"repro/internal/experiment"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/spec"
)

// paperTables regenerates the paper's evaluation E1–E8 at reduced scale
// through the public experiment functions, as bench_test.go does. Each
// operation regenerates all six tables.
type paperTables struct {
	cfg  config
	v    int
	refs digestTable
	out  outputs
	log  *cellLog

	irInstrs     int
	firstOpCells []loggedCell
	// Traced operations only.
	cacheHits   uint64
	cacheMisses uint64
}

// tablesKeys are the compile-cache entries E1–E8 use: plain -O2 for the
// bias sweeps, and stabilized -O1 to -O3 for the rest.
var tablesKeys = []compileKey{{compiler.O2, false}, {compiler.O1, true}, {compiler.O2, true}, {compiler.O3, true}}

// linkOrders is E1's random link orders per benchmark.
const linkOrders = 12

// tableArgs are the inputs every table takes.
type tableArgs struct {
	scale float64
	runs  int
	seed  uint64
	suite []spec.Benchmark
}

// table is one of the paper's tables and how to regenerate its text.
type table struct {
	name  string
	regen func(ctx context.Context, a tableArgs) (string, error)
}

var tables = []table{
	{"linkorder", func(ctx context.Context, a tableArgs) (string, error) {
		res, err := experiment.LinkOrder(ctx, experiment.LinkOrderOptions{
			Scale: a.scale, Orders: linkOrders, Runs: 2, Seed: a.seed, Suite: a.suite})
		if err != nil {
			return "", err
		}
		return res.Table(), nil
	}},
	{"envsize", func(ctx context.Context, a tableArgs) (string, error) {
		res, err := experiment.EnvSize(ctx, experiment.EnvSizeOptions{
			Scale: a.scale, Runs: 3, Seed: a.seed, Suite: a.suite,
			EnvSizes: []uint64{0, 1024, 2048, 3072, 4096}})
		if err != nil {
			return "", err
		}
		return res.Table(), nil
	}},
	{"nist", func(ctx context.Context, a tableArgs) (string, error) {
		res, err := experiment.NIST(ctx, experiment.NISTOptions{Seed: a.seed})
		if err != nil {
			return "", err
		}
		return res.Table(), nil
	}},
	{"normality", func(ctx context.Context, a tableArgs) (string, error) {
		res, err := experiment.Normality(ctx, experiment.NormalityOptions{
			Scale: a.scale, Runs: a.runs, Seed: a.seed, Suite: a.suite})
		if err != nil {
			return "", err
		}
		return res.Table() + res.Summary(), nil
	}},
	{"overhead", func(ctx context.Context, a tableArgs) (string, error) {
		res, err := experiment.Overhead(ctx, experiment.OverheadOptions{
			Scale: a.scale, Runs: a.runs, Seed: a.seed, Suite: a.suite})
		if err != nil {
			return "", err
		}
		return res.Figure(), nil
	}},
	{"speedup", func(ctx context.Context, a tableArgs) (string, error) {
		res, err := experiment.Speedup(ctx, experiment.SpeedupOptions{
			Scale: a.scale, Runs: a.runs, Seed: a.seed, Suite: a.suite})
		if err != nil {
			return "", err
		}
		return res.Figure() + res.ANOVATable(), nil
	}},
}

func (p *paperTables) name() string          { return "paper-tables" }
func (p *paperTables) variant() int          { return p.v }
func (p *paperTables) seenOutputs() *outputs { return &p.out }
func (p *paperTables) teardown()             {}
func (p *paperTables) close()                {}

func (p *paperTables) seed() uint64 { return 2013 + 1_000_000*uint64(p.v) }

func (p *paperTables) key(part string) string {
	return fingerprint("paper-tables", "scale="+fmt.Sprint(p.cfg.tablesScale), "runs="+fmt.Sprint(p.cfg.tablesRuns),
		"benchmarks="+fmt.Sprint(len(p.cfg.suite())), "input="+fmt.Sprint(p.v), part)
}

func (p *paperTables) setup(ctx context.Context, tr *tracer, work string) error {
	p.log = &cellLog{keep: true}
	n, err := warmCompile(tr, p.cfg.suite(), p.cfg.tablesScale, tablesKeys)
	p.irInstrs = n
	if err != nil || tr == nil {
		return err
	}
	// E1 links every benchmark under many random orders; time the same
	// links directly.
	root := tr.root(laneSetup, "perfbench", "setup.link_orders")
	defer root.end()
	r := rng.NewMarsaglia(p.seed())
	for _, b := range p.cfg.suite() {
		cc, err := experiment.CompileBench(b, tablesKeys[0].config(p.cfg.tablesScale))
		if err != nil {
			return err
		}
		for o := 0; o < linkOrders; o++ {
			order := compiler.RandomOrder(len(cc.Module.Funcs), r)
			sp := root.child("compiler", "compiler.link", "random")
			_, err := compiler.Link(cc.Module, order, mem.NewAddressSpace())
			sp.end()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *paperTables) op(ctx context.Context, tr *tracer, i int) sample {
	var smp sample
	start := time.Now()
	root := tr.root(laneClient, "perfbench", "tables.op")
	defer root.end()
	ctx = experiment.WithCellStore(ctx, p.log)
	hits0, misses0 := experiment.CompileCacheStats()
	args := tableArgs{scale: p.cfg.tablesScale, runs: p.cfg.tablesRuns, seed: p.seed(), suite: p.cfg.suite()}
	ok := true
	var instrs uint64
	var cells int
	for _, t := range tables {
		mark := p.log.mark()
		tStart := time.Now()
		sp := root.childOn(root.lane, "experiment", "experiment."+t.name, "", tStart)
		text, err := t.regen(ctx, args)
		sp.end()
		smp.attempted++
		at, instr := p.log.since(mark)
		smp.cells = append(smp.cells, latencies(at, tStart)...)
		instrs += instr
		cells += len(at)
		if err != nil {
			smp.failed++
			ok = false
			continue
		}
		p.out.add(p.key(t.name), digest([]byte(text)))
	}
	elapsed := time.Since(start).Seconds()
	if !ok {
		elapsed = math.Inf(1)
	}
	smp.units = append(smp.units, unit{elapsed, instrs, cells})
	if p.firstOpCells == nil {
		p.firstOpCells = p.log.takeCells()
	}
	if tr != nil {
		hits1, misses1 := experiment.CompileCacheStats()
		p.cacheHits += hits1 - hits0
		p.cacheMisses += misses1 - misses0
	}
	return smp
}

func (p *paperTables) check(ctx context.Context) error { return p.out.check(p.refs) }

func (p *paperTables) summary(ph phase) []string {
	return []string{fmtTiming("tables_s", ph.secs())}
}

func (p *paperTables) layers(ctx context.Context, tr *tracer, work string) (map[string]metric, error) {
	m, err := replayStore(tr, filepath.Join(work, "replay"), p.firstOpCells)
	if err != nil {
		return nil, err
	}
	compileLayers(m, tr, tablesKeys, p.irInstrs)
	m["experiment.compile_cache.hits"] = metric{float64(p.cacheHits), "count"}
	m["experiment.compile_cache.misses"] = metric{float64(p.cacheMisses), "count"}
	for _, t := range tables {
		m["experiment."+t.name+"_s"] = metric{median(tr.durations("experiment."+t.name, "")), "s"}
	}
	var results []experiment.RunResult
	for _, c := range p.firstOpCells {
		results = append(results, c.results...)
	}
	simCounts(m, results)
	return m, nil
}
