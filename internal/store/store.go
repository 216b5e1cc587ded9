// Package store is the content-addressed result store of the benchmarking
// farm: a directory of immutable sample blocks, one per experimental cell,
// addressed by the cell's configuration fingerprint. The fingerprint is the
// engine's own cell key (experiment.CellKey — the same definition the
// collection path uses) extended with the interpreter engine tag and the
// simulator's SemanticsGeneration, so a long-lived store shared across
// campaigns, users, and builds never serves results whose meaning has
// drifted.
//
// Determinism is what makes the store sound: a cell key fully determines
// its samples, so serving a stored block is indistinguishable from
// re-running the cell, and a campaign served entirely from the store merges
// to an artifact byte-identical to a computed one. The store therefore
// needs no invalidation policy beyond the key itself — a repeated question
// costs a cache hit, forever.
//
// Layout:
//
//	<dir>/blocks/<aa>/<sha256(key)>.json   one cell's sample block
//	<dir>/index.json                       advisory listing of all blocks
//	<dir>/quarantine/                      damaged blocks, moved aside
//
// Block files are written atomically (temp + rename) and carry an integrity
// hash over their canonical payload; a corrupt, truncated, mismatched, or
// foreign-schema block degrades to a miss, never to wrong data, and is
// moved into <dir>/quarantine/ so the cell's re-run can write it afresh. The index
// is an advisory accelerator for humans and tooling (`szfarm status`, the
// CI artifact upload): lookups never trust it, and Open rebuilds it from
// the blocks on disk when it is missing or stale.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/experiment"
	"repro/internal/interp"
	"repro/internal/obs"
)

// BlockSchema versions the block-file layout; blocks with another schema
// are ignored (a miss) rather than trusted.
const BlockSchema = 1

// IndexSchema versions the index-file layout.
const IndexSchema = 1

// KeyFor returns the store key for one cell: experiment.CellKey extended
// with the engine tag and semantics generation. Callers must resolve
// engine defaults into cfg.Engine first (the coordinator does this at
// submit time); a zero Engine means the compiled engine, matching
// interp.Engine's zero value.
func KeyFor(benchName string, cfg experiment.Config, runs int, seedBase uint64) string {
	return Extend(experiment.CellKey(benchName, cfg, runs, seedBase), cfg.Engine)
}

// Extend turns an experiment.CellKey into a store key. Both engines
// provably collect identical samples (the cross-engine differential suite),
// but a shared store is longer-lived than that proof: keeping hits within
// one engine means a future engine bug can never cross-contaminate stored
// results, at the cost of one redundant computation per engine. The
// generation tag retires every stored block at once when the simulator's
// sample semantics change (experiment.SemanticsGeneration).
func Extend(cellKey string, engine interp.Engine) string {
	return fmt.Sprintf("%s|engine=%s|gen=%d", cellKey, engine, experiment.SemanticsGeneration)
}

// Cells adapts the store to experiment.CellSource for one engine: cell
// keys arriving from the collection path (experiment.CellKey strings) are
// extended with the engine tag and semantics generation before addressing
// the store. Callers must pass the engine the collection actually runs
// under (the resolved Config.Engine), or hits and writes land in the wrong
// engine's namespace.
func (s *Store) Cells(engine interp.Engine) experiment.CellSource {
	return cellAdapter{s: s, engine: engine}
}

type cellAdapter struct {
	s      *Store
	engine interp.Engine
}

func (a cellAdapter) Lookup(key string, runs int, seedBase uint64) []experiment.RunResult {
	return a.s.Get(Extend(key, a.engine), runs, seedBase)
}

func (a cellAdapter) Store(_ context.Context, key string, runs int, seedBase uint64, results []experiment.RunResult) error {
	return a.s.Put(Extend(key, a.engine), runs, seedBase, results)
}

// blockFile is the on-disk form of one cell. Payload is the canonical
// (compact json.Marshal) encoding of blockPayload; SHA256 is the hex digest
// of those canonical bytes, so any bit damage to the payload — or a
// hash-collision landing a foreign key in this file's slot — is detected on
// read.
type blockFile struct {
	Schema  int             `json:"schema"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

type blockPayload struct {
	Key      string                 `json:"key"`
	Bench    string                 `json:"bench"`
	Runs     int                    `json:"runs"`
	SeedBase uint64                 `json:"seed_base"`
	Results  []experiment.RunResult `json:"results"`
}

// IndexEntry describes one stored block in the advisory index.
type IndexEntry struct {
	Key      string `json:"key"`
	Bench    string `json:"bench"`
	Runs     int    `json:"runs"`
	SeedBase uint64 `json:"seed_base"`
	SHA256   string `json:"sha256"`
	Size     int64  `json:"size"`
}

type indexFile struct {
	Schema int          `json:"schema"`
	Blocks []IndexEntry `json:"blocks"`
}

// Store is an open result store. Methods are safe for concurrent use
// within one process; cross-process writers are safe too (atomic renames),
// though their index updates may race — which only staleness-tolerates the
// advisory index, never lookups.
type Store struct {
	dir string

	mu     sync.Mutex
	index  map[string]IndexEntry // by key
	hits   int
	misses int
	puts   int

	// Obs, when non-nil, receives store counters (store.get.hits,
	// store.get.misses, store.put.blocks, store.put.bytes — all golden:
	// deterministic given the store contents and the query sequence) and
	// corruption warnings. Set it before concurrent use.
	Obs *obs.Scope
}

// Open opens (creating if needed) a store directory and loads or rebuilds
// its index.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blocks"), 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{dir: dir, index: map[string]IndexEntry{}}
	if err := s.loadIndex(); err != nil {
		// A broken index is rebuilt, not fatal: blocks are the truth.
		s.index = map[string]IndexEntry{}
		if rerr := s.rebuildIndex(); rerr != nil {
			return nil, rerr
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed blocks.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats reports lookup and write activity since Open.
func (s *Store) Stats() (hits, misses, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.puts
}

// Index returns the indexed blocks sorted by key.
func (s *Store) Index() []IndexEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]IndexEntry, 0, len(s.index))
	for _, e := range s.index {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (s *Store) metrics() *obs.Registry {
	if s.Obs != nil {
		return s.Obs.Metrics
	}
	return nil
}

func (s *Store) warnf(format string, args ...any) {
	if s.Obs != nil && s.Obs.Log != nil {
		s.Obs.Log.Warn(fmt.Sprintf(format, args...))
		return
	}
	fmt.Fprintf(os.Stderr, "store: %s\n", fmt.Sprintf(format, args...))
}

// keyHash is the content address of a key.
func keyHash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// blockPath maps a key to its block file. The leading byte pair shards the
// directory so a million-cell store does not put a million entries in one
// directory.
func (s *Store) blockPath(key string) string {
	h := keyHash(key)
	return filepath.Join(s.dir, "blocks", h[:2], h+".json")
}

// benchOf extracts the benchmark name from a cell key (its first |-field;
// the format is pinned by experiment.CellKey's doc contract).
func benchOf(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}

// Get returns the stored results for a cell, or nil when absent. Every
// failure mode — missing file, corrupt JSON, schema or integrity mismatch,
// foreign key in the slot, wrong run range — is a miss with a warning,
// never an error: re-collection is deterministic, so dropping a bad block
// is always safe. A damaged block (anything but a missing file or a run
// range that differs from the query) is quarantined, so the re-run's Put
// can write the slot again instead of no-opping on the damaged file.
func (s *Store) Get(key string, runs int, seedBase uint64) []experiment.RunResult {
	path := s.blockPath(key)
	miss := func() []experiment.RunResult {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		s.metrics().Counter("store.get.misses").Inc()
		return nil
	}
	damaged := func(format string, args ...any) []experiment.RunResult {
		s.warnf("%s: %s (quarantined; treated as a miss)", path, fmt.Sprintf(format, args...))
		s.quarantine(path)
		s.mu.Lock()
		delete(s.index, key)
		s.mu.Unlock()
		return miss()
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.warnf("%s: %v (treated as a miss)", path, err)
		}
		return miss()
	}
	var f blockFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return damaged("corrupt block: %v", err)
	}
	if f.Schema != BlockSchema {
		return damaged("block schema %d, this build reads %d", f.Schema, BlockSchema)
	}
	canon, err := canonicalPayload(f.Payload)
	if err != nil {
		return damaged("%v", err)
	}
	if got := hashHex(canon); got != f.SHA256 {
		return damaged("integrity hash mismatch (stored %s, computed %s)", f.SHA256, got)
	}
	var p blockPayload
	if err := json.Unmarshal(canon, &p); err != nil {
		return damaged("corrupt payload: %v", err)
	}
	if p.Key != key {
		// SHA-256 collision or a foreign file copied into the slot.
		return damaged("block holds key %q, wanted %q", p.Key, key)
	}
	if p.Runs != runs || p.SeedBase != seedBase || len(p.Results) != runs {
		s.warnf("%s: run range mismatch (treated as a miss)", path)
		return miss()
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	s.metrics().Counter("store.get.hits").Inc()
	return p.Results
}

// Put stores a completed cell atomically and updates the index. Writing an
// existing key is a no-op (blocks are immutable; determinism means the
// incumbent is as good as the newcomer).
func (s *Store) Put(key string, runs int, seedBase uint64, results []experiment.RunResult) error {
	if len(results) != runs {
		return fmt.Errorf("store: put %q: %d results for %d runs", key, len(results), runs)
	}
	path := s.blockPath(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	payload, err := json.Marshal(blockPayload{
		Key:      key,
		Bench:    benchOf(key),
		Runs:     runs,
		SeedBase: seedBase,
		Results:  results,
	})
	if err != nil {
		return fmt.Errorf("store: encode block: %w", err)
	}
	buf, err := json.MarshalIndent(blockFile{
		Schema:  BlockSchema,
		SHA256:  hashHex(payload),
		Payload: payload,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode block: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	if err := atomicWrite(path, buf); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	s.mu.Lock()
	s.puts++
	s.index[key] = IndexEntry{
		Key: key, Bench: benchOf(key), Runs: runs, SeedBase: seedBase,
		SHA256: hashHex(payload), Size: int64(len(buf)),
	}
	s.mu.Unlock()
	s.metrics().Counter("store.put.blocks").Inc()
	s.metrics().Counter("store.put.bytes").Add(uint64(len(buf)))
	if err := s.writeIndex(); err != nil {
		// The index is advisory; a failed update is a warning, not a lost
		// block.
		s.warnf("updating index: %v (blocks are unaffected)", err)
	}
	return nil
}

// canonicalPayload compacts a payload to the exact bytes Put hashed:
// json.Compact preserves the original token bytes, and Put wrote the
// payload from json.Marshal (already compact), so the indent that
// MarshalIndent applied to the enclosing file compacts back to the
// canonical form.
func canonicalPayload(raw json.RawMessage) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, fmt.Errorf("compacting payload: %w", err)
	}
	return buf.Bytes(), nil
}

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// atomicWrite writes buf to path via temp + rename so a crash mid-write
// never leaves a truncated block behind.
func atomicWrite(path string, buf []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// loadIndex reads index.json into memory.
func (s *Store) loadIndex() error {
	buf, err := os.ReadFile(filepath.Join(s.dir, "index.json"))
	if os.IsNotExist(err) {
		return s.rebuildIndex()
	}
	if err != nil {
		return err
	}
	var f indexFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return err
	}
	if f.Schema != IndexSchema {
		return fmt.Errorf("store: index schema %d, this build reads %d", f.Schema, IndexSchema)
	}
	for _, e := range f.Blocks {
		s.index[e.Key] = e
	}
	return nil
}

// rebuildIndex scans the block directories and rewrites the index from
// what is actually on disk. Corrupt, truncated, or foreign blocks are
// quarantined — moved aside into <dir>/quarantine/ so a later Put of the
// same key is not blocked by Put's exists-check short-circuit — and the
// rebuild continues; only a failed directory walk aborts it.
func (s *Store) rebuildIndex() error {
	s.mu.Lock()
	s.index = map[string]IndexEntry{}
	s.mu.Unlock()
	root := filepath.Join(s.dir, "blocks")
	var bad []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			s.warnf("%s: %v (quarantined by index rebuild)", path, err)
			bad = append(bad, path)
			return nil
		}
		var f blockFile
		if err := json.Unmarshal(buf, &f); err != nil || f.Schema != BlockSchema {
			s.warnf("%s: unreadable or foreign block (quarantined by index rebuild)", path)
			bad = append(bad, path)
			return nil
		}
		var p blockPayload
		canon, err := canonicalPayload(f.Payload)
		if err != nil || json.Unmarshal(canon, &p) != nil || hashHex(canon) != f.SHA256 {
			s.warnf("%s: corrupt block (quarantined by index rebuild)", path)
			bad = append(bad, path)
			return nil
		}
		s.mu.Lock()
		s.index[p.Key] = IndexEntry{
			Key: p.Key, Bench: p.Bench, Runs: p.Runs, SeedBase: p.SeedBase,
			SHA256: f.SHA256, Size: int64(len(buf)),
		}
		s.mu.Unlock()
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: rebuild index: %w", err)
	}
	for _, path := range bad {
		s.quarantine(path)
	}
	return s.writeIndex()
}

// quarantine moves a damaged block file into <dir>/quarantine/, keeping
// its name. Failures degrade to a warning — the block is already excluded
// from the index, so quarantine is hygiene, not correctness.
func (s *Store) quarantine(path string) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		s.warnf("quarantining %s: %v (left in place)", path, err)
		return
	}
	dst := filepath.Join(qdir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		s.warnf("quarantining %s: %v (left in place)", path, err)
		return
	}
	s.metrics().Counter("store.quarantined.blocks").Inc()
}

// writeIndex atomically rewrites index.json, sorted by key so equal stores
// produce byte-identical indexes.
func (s *Store) writeIndex() error {
	f := indexFile{Schema: IndexSchema, Blocks: s.Index()}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(s.dir, "index.json"), append(buf, '\n'))
}
