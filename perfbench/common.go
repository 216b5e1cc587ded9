package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/spec"
	"repro/internal/store"
)

// config sizes every workload. The reference digests in digests.json are
// keyed by these values, so a run with other values (the tests' tiny
// configuration) checks against digests recorded for that configuration.
type config struct {
	// suite-native: one collection of the whole suite at this scale and
	// run count per benchmark.
	suiteScale float64
	suiteRuns  int
	// paper-tables: E1–E8 at this scale; tablesRuns is the sample count of the
	// normality, overhead and speedup tables.
	tablesScale float64
	tablesRuns  int
	// farm-quick: the quick campaign configuration.
	farmScale float64
	farmRuns  int
	// benchmarks restricts the suite (nil means all 18).
	benchmarks []string
}

var defaultConfig = config{
	suiteScale: 1.0, suiteRuns: 10,
	tablesScale: 0.05, tablesRuns: 4,
	farmScale: 0.2, farmRuns: 8,
}

// variants is how many input sets the seed selects from; each has
// recorded reference digests. The last, 31, is held out: it is not used
// while tuning the benchmark or a change, and performance claims must
// also hold on it.
const variants = 32

func variantOf(seed uint64) int { return int(seed % variants) }

func (c config) suite() []spec.Benchmark {
	if c.benchmarks == nil {
		return spec.Suite()
	}
	var out []spec.Benchmark
	for _, n := range c.benchmarks {
		b, ok := spec.ByName(n)
		if !ok {
			panic("perfbench: unknown benchmark " + n)
		}
		out = append(out, b)
	}
	return out
}

func (c config) names() []string {
	var out []string
	for _, b := range c.suite() {
		out = append(out, b.Name)
	}
	return out
}

const workloadList = "suite-native, paper-tables, farm-quick"

func newWorkload(name string, cfg config, v int) (workload, error) {
	switch name {
	case "suite-native":
		return &suiteNative{cfg: cfg, v: v, refs: recordedDigests()}, nil
	case "paper-tables":
		return &paperTables{cfg: cfg, v: v, refs: recordedDigests()}, nil
	case "farm-quick":
		return &farmQuick{cfg: cfg, v: v}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadList)
}

// compileKey is one compile-cache entry a workload needs warm.
type compileKey struct {
	level     compiler.OptLevel
	stabilize bool
}

func (k compileKey) String() string {
	s := fmt.Sprintf("O%d", int(k.level))
	if k.stabilize {
		s += "_stab"
	}
	return s
}

func (k compileKey) config(scale float64) experiment.Config {
	cfg := experiment.Config{Scale: scale, Level: k.level}
	if k.stabilize {
		cfg.Stabilizer = &core.Options{Code: true, Stack: true, Heap: true}
	}
	return cfg
}

// warmCompile is the set-up every workload shares: build and compile each
// benchmark under each key through experiment.CompileBench, which fills
// the compile cache the timed operations then hit. The cache is dropped
// first so that every repeat of set-up does the same work.
//
// When traced, it first calls the layers CompileBench hides — spec's Build,
// compiler.Compile and compiler.Link — so each has spans of its own, and
// returns the compiled modules' IR instruction count.
func warmCompile(tr *tracer, benches []spec.Benchmark, scale float64, keys []compileKey) (irInstrs int, err error) {
	experiment.ResetCompileCache()
	root := tr.root(laneSetup, "perfbench", "setup.compile")
	defer root.end()
	for _, b := range benches {
		for _, k := range keys {
			if tr != nil {
				n, err := tracedCompile(root, b, scale, k)
				if err != nil {
					return 0, err
				}
				irInstrs += n
			}
			sp := root.child("experiment", "experiment.compile_bench", k.String())
			_, err := experiment.CompileBench(b, k.config(scale))
			sp.end()
			if err != nil {
				return 0, err
			}
		}
	}
	return irInstrs, nil
}

func tracedCompile(root ref, b spec.Benchmark, scale float64, k compileKey) (int, error) {
	sp := root.child("spec", "spec.build", b.Name)
	src := b.Build(scale)
	sp.end()
	sp = root.child("compiler", "compiler.compile", k.String())
	mod, err := compiler.Compile(src, compiler.Options{Level: k.level, Stabilize: k.stabilize})
	sp.end()
	if err != nil {
		return 0, fmt.Errorf("compile %s: %w", b.Name, err)
	}
	sp = root.child("compiler", "compiler.link", b.Name)
	_, err = compiler.Link(mod, compiler.DefaultOrder(len(mod.Funcs)), mem.NewAddressSpace())
	sp.end()
	if err != nil {
		return 0, fmt.Errorf("link %s: %w", b.Name, err)
	}
	n := 0
	for _, f := range mod.Funcs {
		for _, bl := range f.Blocks {
			n += len(bl.Instrs) + 1 // the terminator
		}
	}
	return n, nil
}

// compileLayers adds the set-up's spec and compiler metrics.
func compileLayers(m map[string]metric, tr *tracer, keys []compileKey, irInstrs int) {
	timing(m, "spec.build_s", "s", tr.durations("spec.build", ""))
	timing(m, "compiler.compile_s", "s", tr.durations("compiler.compile", ""))
	for _, k := range keys {
		m["compiler.compile_s."+k.String()] = metric{median(tr.durations("compiler.compile", k.String())), "s"}
	}
	timing(m, "compiler.link_s", "s", tr.durations("compiler.link", ""))
	timing(m, "experiment.compile_bench_s", "s", tr.durations("experiment.compile_bench", ""))
	m["compiler.ir_instrs"] = metric{float64(irInstrs), "count"}
}

// cellLog is an experiment.CellSource that never serves a cell and records
// when each computed cell completes. Carried on the context of a
// collection, it is how the benchmark sees cell completions without
// touching the engine. While keep is set it also keeps the cells' results,
// for the simulated counts and the store replay.
type cellLog struct {
	mu      sync.Mutex
	keep    bool
	entries []cellEntry
	cells   []loggedCell
}

type cellEntry struct {
	at    time.Time
	instr uint64
}

// loggedCell is one cell's results under its store key.
type loggedCell struct {
	key      string
	runs     int
	seedBase uint64
	results  []experiment.RunResult
}

func (l *cellLog) Lookup(string, int, uint64) []experiment.RunResult { return nil }

func (l *cellLog) Store(_ context.Context, key string, runs int, seedBase uint64, results []experiment.RunResult) error {
	e := cellEntry{at: time.Now()}
	for _, r := range results {
		e.instr += r.Instructions
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, e)
	if l.keep {
		l.cells = append(l.cells, loggedCell{store.Extend(key, interp.EngineCompiled), runs, seedBase, results})
	}
	return nil
}

func (l *cellLog) mark() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// since returns the completion times of the cells recorded after mark and
// the instructions they retired.
func (l *cellLog) since(mark int) ([]time.Time, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var at []time.Time
	var instr uint64
	for _, e := range l.entries[mark:] {
		at = append(at, e.at)
		instr += e.instr
	}
	return at, instr
}

// takeCells stops keeping results and returns those kept so far.
func (l *cellLog) takeCells() []loggedCell {
	l.mu.Lock()
	defer l.mu.Unlock()
	cells := l.cells
	l.cells, l.keep = nil, false
	return cells
}

// latencies converts completion times to seconds since start.
func latencies(at []time.Time, start time.Time) []float64 {
	out := make([]float64, len(at))
	for i, t := range at {
		out[i] = t.Sub(start).Seconds()
	}
	return out
}

// simCounts adds the simulated counts of the given runs. They are golden:
// a change that only makes the program faster must leave them identical.
func simCounts(m map[string]metric, results []experiment.RunResult) {
	var instr, cycles, l1i, l1d, l2, l3, tlb, mis, rerand, reloc uint64
	for _, r := range results {
		instr += r.Instructions
		cycles += r.Cycles
		l1i += r.Counters.L1IMisses
		l1d += r.Counters.L1DMisses
		l2 += r.Counters.L2Misses
		l3 += r.Counters.L3Misses
		tlb += r.Counters.TLBMisses
		mis += r.Counters.DirectionMispredicts + r.Counters.BTBMispredicts
		rerand += r.Rerands
		reloc += r.Relocations
	}
	for k, v := range map[string]uint64{
		"interp.instructions": instr, "machine.cycles": cycles,
		"machine.l1i_misses": l1i, "machine.l1d_misses": l1d,
		"machine.l2_misses": l2, "machine.l3_misses": l3,
		"machine.tlb_misses": tlb, "machine.mispredicts": mis,
		"core.rerands": rerand, "core.relocations": reloc,
	} {
		m[k] = metric{float64(v), "count"}
	}
}

// replayStore writes the workload's own cells into a fresh store through
// store.Put, reads each back through store.Get, and reopens the store
// without its index so store.Open rebuilds it from the blocks.
func replayStore(tr *tracer, dir string, cells []loggedCell) (map[string]metric, error) {
	root := tr.root(laneSetup, "perfbench", "store.replay")
	defer root.end()
	sp := root.child("store", "store.open", "empty")
	st, err := store.Open(dir)
	sp.end()
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		sp := root.child("store", "store.put", "")
		err := st.Put(c.key, c.runs, c.seedBase, c.results)
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	for _, c := range cells {
		sp := root.child("store", "store.get", "")
		got := st.Get(c.key, c.runs, c.seedBase)
		sp.end()
		if len(got) != c.runs {
			return nil, fmt.Errorf("store replay: cell %s read back %d runs, want %d", c.key, len(got), c.runs)
		}
	}
	hits, misses, puts := st.Stats()
	blockBytes, err := dirBytes(filepath.Join(dir, "blocks"))
	if err != nil {
		return nil, err
	}
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	sp = root.child("store", "store.open", "rebuild")
	st2, err := store.Open(dir)
	sp.end()
	if err != nil {
		return nil, err
	}
	if st2.Len() != len(cells) {
		return nil, fmt.Errorf("store replay: rebuilt index holds %d blocks, want %d", st2.Len(), len(cells))
	}
	m := map[string]metric{
		"store.puts":        {float64(puts), "count"},
		"store.hits":        {float64(hits), "count"},
		"store.misses":      {float64(misses), "count"},
		"store.block_bytes": {float64(blockBytes), "bytes"},
	}
	timing(m, "store.put_s", "s", tr.durations("store.put", ""))
	timing(m, "store.get_s", "s", tr.durations("store.get", ""))
	timing(m, "store.open_s", "s", tr.durations("store.open", "rebuild"))
	return m, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	if os.IsNotExist(err) {
		return 0, nil
	}
	return n, err
}

// layerMetrics lists every per-layer metric a traced run reports, with its
// unit. A workload that does not reach a layer reports that layer's
// metrics as zero; README.md says which workload moves each.
var layerMetrics = func() []metricSpec {
	var out []metricSpec
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{n, unit})
		}
	}
	timed := func(unit string, names ...string) {
		for _, n := range names {
			add(unit, n, n+".p95")
			add("count", n+".n")
		}
	}
	timed("s", "spec.build_s", "compiler.compile_s", "compiler.link_s", "experiment.compile_bench_s")
	add("s", "compiler.compile_s.O2", "compiler.compile_s.O1_stab", "compiler.compile_s.O2_stab", "compiler.compile_s.O3_stab")
	add("count", "compiler.ir_instrs", "experiment.compile_cache.hits", "experiment.compile_cache.misses")
	add("s", "experiment.run_s")
	timed("ms", "experiment.run_ms")
	add("ns", "experiment.ns_per_instr", "experiment.ns_per_instr.cactusADM")
	add("ratio", "experiment.pool_busy_ratio")
	add("count", "interp.instructions", "machine.cycles", "machine.l1i_misses", "machine.l1d_misses",
		"machine.l2_misses", "machine.l3_misses", "machine.tlb_misses", "machine.mispredicts",
		"core.rerands", "core.relocations")
	add("s", "experiment.linkorder_s", "experiment.envsize_s", "experiment.nist_s",
		"experiment.normality_s", "experiment.overhead_s", "experiment.speedup_s")
	timed("s", "gate.compare_s", "bench.encode_s", "store.put_s", "store.get_s", "store.open_s")
	add("count", "store.puts", "store.hits", "store.misses")
	add("bytes", "store.block_bytes", "campaign.journal_bytes")
	timed("s", "campaign.submit_s", "campaign.acquire_s", "campaign.complete_s", "campaign.artifact_s",
		"campaign.queue_wait_s", "worker.compute_s")
	add("s", "campaign.resubmit_s")
	add("ratio", "campaign.acquire_hit_ratio")
	add("count", "campaign.requeues", "campaign.heartbeats")
	for _, l := range []string{"perfbench", "spec", "compiler", "experiment", "gate", "bench", "store", "campaign"} {
		add("s", "layer."+l+".self_s")
	}
	add("s", "trace.overhead_s")
	add("count", "trace.spans")
	return out
}()

type metricSpec struct{ name, unit string }

// fillLayerDefaults adds every per-layer metric the workload did not
// reach as zero, so each traced run reports the same names.
func fillLayerDefaults(m map[string]metric) {
	known := map[string]bool{}
	for _, s := range layerMetrics {
		known[s.name] = true
		if _, ok := m[s.name]; !ok {
			m[s.name] = metric{0, s.unit}
		}
	}
	for k := range m {
		if !known[k] {
			panic("perfbench: per-layer metric " + k + " is not in layerMetrics")
		}
	}
}

func fingerprint(parts ...any) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprint(&b, p)
	}
	return b.String()
}
