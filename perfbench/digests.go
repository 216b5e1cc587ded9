package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// digests.json holds the reference digests of every output the
// suite-native and paper-tables workloads produce, for each input set of
// the default configuration. `perfbench --record-digests` rewrites it; do
// that only for a change that is meant to alter outputs.
//
//go:embed digests.json
var digestsJSON []byte

// digestTable maps an output's name (workload, configuration, input set
// and part) to the SHA-256 of its bytes.
type digestTable map[string]string

func recordedDigests() digestTable {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return t
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outputs collects the digests of one run's outputs. The first operation
// sets them; every later operation must reproduce them exactly.
type outputs struct {
	seen     map[string]string
	mismatch error
}

func (o *outputs) add(key, value string) {
	if o.seen == nil {
		o.seen = map[string]string{}
	}
	prev, ok := o.seen[key]
	switch {
	case !ok:
		o.seen[key] = value
	case prev != value:
		o.fail(fmt.Errorf("%s changed between operations of one run: %.16s then %.16s", key, prev, value))
	}
}

// fail records an output that could not be produced.
func (o *outputs) fail(err error) {
	if o.mismatch == nil {
		o.mismatch = err
	}
}

// check compares the outputs with the reference table. A missing
// reference is a failure too: an output nobody recorded is unchecked.
func (o *outputs) check(ref digestTable) error {
	if o.mismatch != nil {
		return o.mismatch
	}
	if len(o.seen) == 0 {
		return fmt.Errorf("no outputs to check")
	}
	keys := make([]string, 0, len(o.seen))
	for k := range o.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, ok := ref[k]
		if !ok {
			return fmt.Errorf("no reference digest recorded for %q", k)
		}
		if got := o.seen[k]; got != want {
			return fmt.Errorf("%s: got %.16s, reference %.16s", k, got, want)
		}
	}
	return nil
}

// referenceOutputs runs one untimed operation of a workload and returns
// its outputs; it is how reference digests are recorded.
func referenceOutputs(ctx context.Context, name string, cfg config, v int, work string) (map[string]string, error) {
	wl, err := newWorkload(name, cfg, v)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	if err := wl.setup(ctx, nil, work); err != nil {
		return nil, err
	}
	s := wl.op(ctx, nil, 0)
	out := wl.(interface{ seenOutputs() *outputs }).seenOutputs()
	if s.failed > 0 || out.mismatch != nil {
		return nil, fmt.Errorf("%s: reference operation failed: %v", name, out.mismatch)
	}
	return out.seen, nil
}

// recordDigests recomputes the reference digests of every input set of
// the default configuration and writes them to path.
func recordDigests(ctx context.Context, path string, log io.Writer) error {
	work, err := os.MkdirTemp("", "perfbench-record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	table := digestTable{}
	for _, name := range []string{"suite-native", "paper-tables"} {
		for v := 0; v < variants; v++ {
			out, err := referenceOutputs(ctx, name, defaultConfig, v, work)
			if err != nil {
				return err
			}
			for k, d := range out {
				table[k] = d
			}
			fmt.Fprintf(log, "recorded %s input set %d\n", name, v)
		}
	}
	buf, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
