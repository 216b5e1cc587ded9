package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"syscall"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	name() string
	variant() int
	// setup prepares everything the timed operations need; teardown
	// undoes it so set-up can be repeated.
	setup(ctx context.Context, tr *tracer, work string) error
	teardown()
	// op runs timed operation i. Spans go to tr when it is non-nil.
	op(ctx context.Context, tr *tracer, i int) sample
	// check verifies every output the operations produced.
	check(ctx context.Context) error
	// summary reports the workload's end-to-end figures under the names
	// README.md uses for it.
	summary(ph phase) []string
	// layers computes the per-layer metrics of a traced run.
	layers(ctx context.Context, tr *tracer, work string) (map[string]metric, error)
	close()
}

// sample is what one timed operation measured. A unit or cell that
// failed is recorded as taking +Inf seconds: a failure misses every
// latency figure.
type sample struct {
	// units are the operation's timed units of work.
	units []unit
	// warm are the farm's warm resubmissions, in seconds.
	warm []float64
	// cells are the latencies from a unit's start to each of its cells'
	// completion, in seconds.
	cells []float64
	// attempted and failed count the operation's attempted and failed
	// or refused sub-operations.
	attempted, failed int
}

// unit is one timed unit of work: a suite collection, a regeneration of
// the tables, or a cold campaign.
type unit struct {
	secs  float64
	instr uint64 // simulated instructions retired
	cells int    // cells completed
}

// phase accumulates the samples of one timed phase.
type phase struct {
	ops               int
	units             []unit
	warm, cells       []float64
	attempted, failed int
}

func (p *phase) add(s sample) {
	p.ops++
	p.units = append(p.units, s.units...)
	p.warm = append(p.warm, s.warm...)
	p.cells = append(p.cells, s.cells...)
	p.attempted += s.attempted
	p.failed += s.failed
}

// perUnit applies f to every unit.
func (p phase) perUnit(f func(u unit) float64) []float64 {
	out := make([]float64, len(p.units))
	for i, u := range p.units {
		out[i] = f(u)
	}
	return out
}

func (p phase) secs() []float64 { return p.perUnit(func(u unit) float64 { return u.secs }) }

func (p phase) errorRate() float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.attempted)
}

// endToEnd computes the end-to-end metrics every workload reports. Rates
// are per-unit medians, like the times, so a slow spell of the host that
// covers a minority of the units does not move them.
func (p phase) endToEnd(setup []float64) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(setup), "s"},
		"op_s":        {median(p.secs()), "s"},
		"sim_mips":    {median(p.perUnit(func(u unit) float64 { return float64(u.instr) / u.secs / 1e6 })), "Minstr/s"},
		"cells_per_s": {median(p.perUnit(func(u unit) float64 { return float64(u.cells) / u.secs })), "1/s"},
		"cell_p50_s":  {quantile(p.cells, 0.50), "s"},
		"cell_p95_s":  {quantile(p.cells, 0.95), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// peakRSSMB is the process's peak resident memory.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; it is NaN for
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// timing adds the median, p95 and sample count of per-call durations
// under name, name.p95 and name.n, scaled to unit ("s" or "ms").
func timing(m map[string]metric, name, unit string, secs []float64) {
	m[name+".n"] = metric{float64(len(secs)), "count"}
	if len(secs) == 0 {
		m[name] = metric{0, unit}
		m[name+".p95"] = metric{0, unit}
		return
	}
	scale := 1.0
	if unit == "ms" {
		scale = 1e3
	}
	m[name] = metric{median(secs) * scale, unit}
	m[name+".p95"] = metric{quantile(secs, 0.95) * scale, unit}
}

// fmtTiming renders a timing for the human-readable summary.
func fmtTiming(name string, secs []float64) string {
	return fmt.Sprintf("%-14s median %.6g s  p95 %.6g s  n %d", name, median(secs), quantile(secs, 0.95), len(secs))
}
