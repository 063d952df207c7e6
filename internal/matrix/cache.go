package matrix

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Cache is the content-addressed run store: one WAL journal per
// simulation key (see Cell.SimKey), holding raw measurement runs in run
// order. A cell acquires its key's entry before executing; the entry
// serves the recovered run prefix through the campaign engine's
// ExecPolicy.Cached hook and appends every freshly simulated run
// beyond the prefix, so a partial cache extends a campaign instead of
// restarting it, and a complete cache replays it without touching a
// simulator board.
//
// Durability reuses the campaign WAL codec: longest-valid-prefix
// recovery, checkpoint-bounded truncation after corruption, and
// per-run seed validation all apply to cache journals exactly as they
// do to campaign journals. A cache entry that fails validation is
// discarded and rebuilt, never trusted.
type Cache struct {
	dir  string
	tele *telemetry.Registry

	mu    sync.Mutex
	locks map[string]*sync.Mutex
}

// NewCache opens (creating if needed) the cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("matrix: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("matrix: create cache dir: %w", err)
	}
	return &Cache{dir: dir, locks: make(map[string]*sync.Mutex)}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// SetTelemetry routes the underlying WAL writers' instrumentation to
// reg (nil disables it).
func (c *Cache) SetTelemetry(reg *telemetry.Registry) { c.tele = reg }

// keyLock returns the mutex serializing access to one key's journal.
func (c *Cache) keyLock(key string) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.locks[key]
	if !ok {
		l = &sync.Mutex{}
		c.locks[key] = l
	}
	return l
}

// Acquire opens the cell's cache entry, holding the key's lock until
// Close: cells that share a key execute serially, so the second one
// sees every run the first simulated. A journal whose identity or seed
// schedule does not match the cell — a hash collision, a renamed
// platform, or manual tampering — is removed and recreated empty
// rather than replayed.
func (c *Cache) Acquire(cell Cell) (*Entry, error) {
	key, err := cell.SimKey()
	if err != nil {
		return nil, err
	}
	cfg, err := fabric.NamedPlatform(cell.Platform)
	if err != nil {
		return nil, err
	}
	// The identity record is belt-and-suspenders on top of the key (the
	// filename already content-addresses the full configuration): it
	// catches a tampered or mis-filed journal before any run replays.
	// The resolved build name keeps aliases ("" vs "RAND") from looking
	// like different campaigns; workload parameters are covered by the
	// key itself, so the kind suffices here.
	meta := wal.Meta{Platform: cfg.Name, Workload: cell.Workload.Kind, BaseSeed: cell.BaseSeed}

	lock := c.keyLock(key)
	lock.Lock()
	entry, err := c.open(key, meta)
	if err != nil {
		lock.Unlock()
		return nil, err
	}
	entry.release = lock.Unlock
	return entry, nil
}

// open opens or creates the key's journal and validates its prefix.
func (c *Cache) open(key string, meta wal.Meta) (*Entry, error) {
	path := filepath.Join(c.dir, key+".wal")
	if _, err := os.Stat(path); err == nil {
		entry, err := c.reopen(path, key, meta)
		if err == nil {
			return entry, nil
		}
		// The journal exists but cannot serve this cell (identity
		// mismatch or an inconsistent seed schedule). Rebuilding from
		// scratch is always safe — the cache is a pure accelerator.
		if rmErr := os.Remove(path); rmErr != nil {
			return nil, fmt.Errorf("matrix: invalid cache entry %s (%v) and removal failed: %w", key, err, rmErr)
		}
	}
	w, err := wal.Create(path, meta, c.tele)
	if err != nil {
		return nil, err
	}
	return &Entry{Key: key, journal: &cacheJournal{w: w}}, nil
}

// reopen recovers an existing journal for appending.
func (c *Cache) reopen(path, key string, meta wal.Meta) (*Entry, error) {
	w, rec, err := wal.OpenAppend(path, c.tele)
	if err != nil {
		return nil, err
	}
	// Validate identity manually instead of Meta.Validate: MaxRuns and
	// BatchSize are analysis-side parameters a cache entry must ignore —
	// extension semantics mean the same raw runs serve any budget.
	if rec.Meta.Platform != meta.Platform || rec.Meta.Workload != meta.Workload || rec.Meta.BaseSeed != meta.BaseSeed {
		w.Close()
		return nil, fmt.Errorf("matrix: cache entry %s journaled for %s/%s seed %d, cell wants %s/%s seed %d",
			key, rec.Meta.Platform, rec.Meta.Workload, rec.Meta.BaseSeed, meta.Platform, meta.Workload, meta.BaseSeed)
	}
	prefix := make([]platform.RunResult, len(rec.Runs))
	for i, r := range rec.Runs {
		if want := platform.DeriveRunSeed(meta.BaseSeed, i); r.Seed != want {
			w.Close()
			return nil, fmt.Errorf("matrix: cache entry %s run %d has seed %#x, base seed %d derives %#x",
				key, i, r.Seed, meta.BaseSeed, want)
		}
		prefix[i] = platform.RunResult{
			Cycles:       r.Cycles,
			Instructions: r.Instructions,
			Path:         r.Path,
			Outcome:      r.Outcome,
			Faults:       r.Faults,
		}
	}
	return &Entry{Key: key, Prefix: prefix, journal: &cacheJournal{w: w, skip: len(prefix)}}, nil
}

// Entry is one acquired cache key: the recovered run prefix plus an
// append journal for runs beyond it. Exactly one cell holds an entry's
// key at a time (Acquire serializes on the key lock); Close releases
// it.
type Entry struct {
	// Key is the cell's simulation key.
	Key string
	// Prefix is the cached run prefix, in run order with no gaps.
	Prefix []platform.RunResult

	journal *cacheJournal
	release func()
}

// Lookup implements the campaign engine's run-cache hook
// (ExecPolicy.Cached): runs inside the recovered prefix replay from
// the cache; runs beyond it miss and simulate normally.
func (e *Entry) Lookup(run int) (platform.RunResult, bool) {
	if run < len(e.Prefix) {
		return e.Prefix[run], true
	}
	return platform.RunResult{}, false
}

// Journal returns the platform.Journal that persists freshly simulated
// runs into the cache (skipping the already-cached prefix).
func (e *Entry) Journal() platform.Journal { return e.journal }

// Appended reports how many new runs this entry journaled.
func (e *Entry) Appended() int { return e.journal.appended }

// Close closes the journal, syncing it if this entry changed it, and
// releases the key lock.
func (e *Entry) Close() error {
	err := e.journal.close()
	if e.release != nil {
		e.release()
		e.release = nil
	}
	return err
}

// cacheJournal adapts a WAL writer into a skip-aware platform.Journal:
// the campaign engine logs every run it delivers (cached and fresh
// alike, in run order), and the journal appends only the runs beyond
// the cached prefix. Barriers past the skip frontier write an empty
// checkpoint and fsync — checkpoints bound how much a torn tail can
// truncate on recovery, exactly as in campaign journals. Barriers
// inside the cached prefix append nothing and so sync nothing, and
// Close syncs only a journal this entry appended to or truncated, so a
// fully warm entry performs no fsync.
type cacheJournal struct {
	w        *wal.Writer
	skip     int // length of the already-journaled prefix
	appended int
	unsynced bool // runs appended since the last sync
}

func (j *cacheJournal) LogRun(run int, seed uint64, r platform.RunResult) error {
	if run < j.skip {
		return nil // already journaled by an earlier cell
	}
	if err := j.w.AppendRun(wal.RunRecord{
		Run:          run,
		Seed:         seed,
		Cycles:       r.Cycles,
		Instructions: r.Instructions,
		Faults:       r.Faults,
		Path:         r.Path,
		Outcome:      r.Outcome,
	}); err != nil {
		return err
	}
	j.appended++
	j.unsynced = true
	return nil
}

func (j *cacheJournal) Barrier(b platform.Batch) error {
	delivered := b.Start + len(b.Results)
	if delivered <= j.skip {
		return nil
	}
	// Cache checkpoints carry no analyzer state: the cache stores raw
	// runs only — every cell re-derives its own analysis.
	if err := j.w.AppendCheckpoint(wal.Checkpoint{Batch: b.Index, Runs: delivered}); err != nil {
		return err
	}
	return j.sync()
}

func (j *cacheJournal) Flush() error {
	if !j.unsynced {
		return nil
	}
	return j.sync()
}

func (j *cacheJournal) sync() error {
	j.unsynced = false
	return j.w.Sync()
}

func (j *cacheJournal) close() error { return j.w.Close() }
