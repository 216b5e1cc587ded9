package bench

import (
	"context"
	"fmt"
	"hash/fnv"

	"repro/internal/experiment"
	"repro/internal/spec"
	"repro/internal/stats"
)

// CollectOptions configures artifact collection.
type CollectOptions struct {
	// Suite is the benchmark set (default spec.Suite()).
	Suite []spec.Benchmark
	// Config is the cell every benchmark runs under (scale, opt level,
	// stabilizer, noise). Config.Scale == 0 means 1.0.
	Config experiment.Config
	// Runs is the fixed sample count per benchmark (default 20); in
	// adaptive mode it is the starting count (minimum MinAdaptiveRuns).
	Runs int
	// Seed is the master seed; each benchmark's seed base is derived from
	// it and the benchmark name, so artifacts stay comparable when the
	// suite is subset or reordered.
	Seed uint64
	// Commit labels the artifact with the source revision (optional).
	Commit string
	// Throughput additionally records per-run host wall-clock times in the
	// artifact's non-golden HostSeconds field, for simulator-throughput
	// gating (retired instructions per host second). Off by default so
	// golden artifacts stay byte-identical across hosts and reruns.
	Throughput bool

	// Adaptive enables μOpTime-style adaptive stopping: sampling continues
	// in batches until the bootstrap CI half-width on the mean, relative
	// to the mean, reaches TargetRel — or MaxRuns is exhausted.
	Adaptive bool
	// TargetRel is the target relative CI half-width (default 0.005).
	TargetRel float64
	// Confidence is the CI level for the stopping rule (default 0.95).
	Confidence float64
	// BatchRuns is how many runs are added per round (default 10).
	BatchRuns int
	// MaxRuns is the adaptive run budget per benchmark (default 200).
	MaxRuns int
	// BootstrapB is the replicate count for the stopping CI (default 400;
	// the stopping rule needs stability, not tail precision).
	BootstrapB int
}

// MinAdaptiveRuns is the floor on the initial adaptive sample: below this
// a bootstrap CI on the mean is too coarse to steer by.
const MinAdaptiveRuns = 8

func (o *CollectOptions) defaults() {
	if o.Suite == nil {
		o.Suite = spec.Suite()
	}
	// Host timing happens inside the runner; the experiment config is the
	// channel that reaches it.
	o.Config.Throughput = o.Throughput
	if o.Runs == 0 {
		o.Runs = 20
	}
	if o.Adaptive {
		if o.Runs < MinAdaptiveRuns {
			o.Runs = MinAdaptiveRuns
		}
		if o.TargetRel == 0 {
			o.TargetRel = 0.005
		}
		if o.Confidence == 0 {
			o.Confidence = 0.95
		}
		if o.BatchRuns == 0 {
			o.BatchRuns = 10
		}
		if o.MaxRuns == 0 {
			o.MaxRuns = 200
		}
		if o.MaxRuns < o.Runs {
			o.MaxRuns = o.Runs
		}
		if o.BootstrapB == 0 {
			o.BootstrapB = 400
		}
	}
}

// SeedBase derives a benchmark's seed range start from the master seed and
// the benchmark name (FNV-1a), so the same benchmark gets the same seeds no
// matter which subset of the suite is collected. Exported because the
// campaign coordinator must shard cells with exactly this derivation for
// its merged artifacts to be byte-identical to a local collection.
func SeedBase(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed + h.Sum64()
}

// Collect runs every benchmark in the suite under the configured cell and
// returns the artifact. Runs execute on the default experiment pool; the
// samples are bit-identical at any worker count because each run is fully
// determined by its seed. In adaptive mode each benchmark keeps sampling in
// batches until the stopping rule fires (see CollectOptions.Adaptive).
func Collect(ctx context.Context, opts CollectOptions) (*Artifact, error) {
	opts.defaults()
	if err := validateCollect(&opts); err != nil {
		return nil, err
	}
	art := &Artifact{Meta: metaFor(opts), Metrics: &MetricsSummary{}}
	for _, b := range opts.Suite {
		entry, err := collectOne(ctx, b, opts, art.Metrics)
		if err != nil {
			return nil, err
		}
		art.Benchmarks = append(art.Benchmarks, entry)
	}
	art.normalize()
	return art, nil
}

func validateCollect(opts *CollectOptions) error {
	if opts.Runs < 1 {
		return fmt.Errorf("bench: Runs=%d, need at least 1", opts.Runs)
	}
	if opts.Adaptive && (opts.TargetRel <= 0 || opts.TargetRel >= 1) {
		return fmt.Errorf("bench: adaptive TargetRel=%v must be in (0, 1)", opts.TargetRel)
	}
	if opts.Adaptive && (opts.Confidence <= 0 || opts.Confidence >= 1) {
		return fmt.Errorf("bench: adaptive Confidence=%v must be in (0, 1)", opts.Confidence)
	}
	return nil
}

func metaFor(opts CollectOptions) Meta {
	stab := "native"
	if opts.Config.Stabilizer != nil {
		stab = "stab:" + opts.Config.Stabilizer.EnabledString()
	}
	scale := opts.Config.Scale
	if scale == 0 {
		scale = 1.0
	}
	noise := opts.Config.Noise
	if noise == 0 {
		noise = experiment.DefaultNoise
	}
	if noise < 0 {
		noise = 0
	}
	return Meta{
		Schema:     SchemaVersion,
		Unit:       UnitSimulatedSeconds,
		Seed:       opts.Seed,
		Scale:      scale,
		Level:      opts.Config.Level.String(),
		Stabilizer: stab,
		Noise:      noise,
		Commit:     opts.Commit,
		Engine:     opts.Config.Engine.String(),
	}
}

func collectOne(ctx context.Context, b spec.Benchmark, opts CollectOptions, met *MetricsSummary) (Benchmark, error) {
	cc, err := experiment.CompileBench(b, opts.Config)
	if err != nil {
		return Benchmark{}, err
	}
	base := SeedBase(opts.Seed, b.Name)
	entry := Benchmark{Name: b.Name, SeedBase: base}

	grow := func(n int) error {
		ss, err := cc.Collect(ctx, n, base+uint64(len(entry.Seconds)))
		if err != nil {
			return err
		}
		entry.Seconds = append(entry.Seconds, ss.Seconds...)
		for _, r := range ss.Results {
			entry.Cycles = append(entry.Cycles, r.Cycles)
			entry.Instructions = append(entry.Instructions, r.Instructions)
			if opts.Throughput {
				entry.HostSeconds = append(entry.HostSeconds, r.HostSeconds)
			}
		}
		// Per-run counters are stored in result-store blocks, so a resumed
		// collection replays them and the summary stays byte-identical.
		met.add(MetricsSummary{TotalRuns: len(ss.Results), Counters: ss.Counters})
		return nil
	}

	if err := grow(opts.Runs); err != nil {
		return Benchmark{}, err
	}
	if opts.Adaptive {
		// The stopping CI uses a seed derived from the benchmark's, so the
		// decision sequence — and therefore the artifact — is reproducible.
		bootSeed := base ^ 0xada9_71fe
		for {
			iv := stats.BootstrapCI(entry.Seconds, stats.Mean, opts.BootstrapB, opts.Confidence, bootSeed)
			mean := stats.Mean(entry.Seconds)
			entry.RelHalfWidth = iv.HalfWidth() / mean
			if entry.RelHalfWidth <= opts.TargetRel {
				entry.Stopped = StoppedTarget
				break
			}
			if len(entry.Seconds) >= opts.MaxRuns {
				entry.Stopped = StoppedBudget
				break
			}
			batch := opts.BatchRuns
			if rem := opts.MaxRuns - len(entry.Seconds); batch > rem {
				batch = rem
			}
			if err := grow(batch); err != nil {
				return Benchmark{}, err
			}
		}
	}
	entry.Runs = len(entry.Seconds)
	return entry, nil
}
