// Package store is the persistent result log of the distributed sweep
// tier: an append-only, content-addressed store of executed trial results
// keyed by the wire schema's canonical spec key (wire.Key). Results are
// written as JSONL segments — one record per line, rotated by entry count —
// and indexed in memory on Open, so lookups are map-speed while the disk
// format stays human-greppable and trivially mergeable (concatenating two
// stores' segments is a valid store).
//
// Because every trial is a deterministic function of its spec, a stored
// result is valid forever; the store never updates or deletes. That is what
// makes it double as both a resume log (an interrupted sweep re-planned
// over the same grid skips every key already on disk) and a cross-run cache
// (a second sweep sharing cells with a first costs zero simulation).
//
// A half-written final line — the crash case for an append-only log — is
// detected on Open and ignored; the next Put rotates to a fresh segment so
// the torn record is never appended after.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"dynspread/internal/obs"
	"dynspread/internal/wire"
)

// record is one JSONL line: a content address and its trial result.
type record struct {
	Key    string           `json:"key"`
	Result wire.TrialResult `json:"result"`
}

// Store is an append-only on-disk result log with an in-memory index.
// All methods are safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	index   map[string]wire.TrialResult
	active  *os.File      // current segment, nil until the first Put
	w       *bufio.Writer // buffers active; flushed after every Put
	seg     int           // highest segment number seen or created
	written int           // records appended to the active segment
	closed  bool

	// Lifetime traffic counters (under mu; the store has no lock-free
	// paths to protect, so plain fields suffice). Puts counts records
	// actually appended — deduplicated re-puts don't move it.
	gets, hits, puts int64
	appendedBytes    int64
}

// MaxSegmentRecords is the rotation threshold: a segment that reaches this
// many records is closed and a new one started, keeping individual files
// reasonably sized for inspection and partial copying.
const MaxSegmentRecords = 4096

const segPrefix, segSuffix = "segment-", ".jsonl"

func segName(n int) string { return fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix) }

// Open opens (creating if needed) the store rooted at dir and loads every
// segment into the index. Unreadable records fail Open — except a torn
// final line of a segment, which is the expected shape of an interrupted
// write (recovery rotates to a fresh segment, so the torn tail stays where
// the crash left it) and is skipped.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs) // zero-padded numbers: lexicographic == numeric
	s := &Store{dir: dir, index: make(map[string]wire.TrialResult)}
	for _, name := range segs {
		if err := s.loadSegment(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
		var n int
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &n); err == nil && n > s.seg {
			s.seg = n
		}
	}
	return s, nil
}

// loadSegment replays one JSONL segment into the index. A malformed FINAL
// line is skipped (the torn-write case — the segment that was active at a
// crash keeps its torn tail forever, since recovery appends only to fresh
// segments); malformed interior lines fail, since they mean the log is not
// what this package writes.
func (s *Store) loadSegment(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	// A bufio.Reader, not a Scanner: Put writes records of any size (a
	// materialized arrival schedule can run to hundreds of megabytes at the
	// wire limits), so reading back must not impose a line-length cap that
	// would make a legally-written store unopenable.
	rd := bufio.NewReaderSize(f, 1<<20)
	line := 0
	var pendingErr error
	for {
		b, rerr := rd.ReadBytes('\n')
		if len(b) > 0 {
			line++
			if pendingErr != nil {
				// The malformed line was interior after all.
				return pendingErr
			}
			var rec record
			if jerr := json.Unmarshal(bytes.TrimSuffix(b, []byte("\n")), &rec); jerr != nil || rec.Key == "" {
				if jerr == nil {
					jerr = fmt.Errorf("record has no key")
				}
				pendingErr = fmt.Errorf("store: %s:%d: %w", path, line, jerr)
			} else {
				s.index[rec.Key] = rec.Result
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return fmt.Errorf("store: %s: %w", path, rerr)
		}
	}
}

// rotate closes the active segment (if any) and opens the next one.
// Called with mu held.
func (s *Store) rotate() error {
	if err := s.closeActive(); err != nil {
		return err
	}
	s.seg++
	f, err := os.OpenFile(filepath.Join(s.dir, segName(s.seg)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.active, s.w, s.written = f, bufio.NewWriter(f), 0
	return nil
}

func (s *Store) closeActive() error {
	if s.active == nil {
		return nil
	}
	var err error
	if ferr := s.w.Flush(); ferr != nil {
		err = ferr
	}
	if cerr := s.active.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.active, s.w = nil, nil
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Put appends res under key and indexes it. Re-putting a key the store
// already holds is a no-op (results are deterministic, so the first record
// is as good as any) — the log stays append-only and duplicate-free.
func (s *Store) Put(key string, res wire.TrialResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if _, ok := s.index[key]; ok {
		return nil
	}
	if s.active == nil || s.written >= MaxSegmentRecords {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	b, err := json.Marshal(record{Key: key, Result: res})
	if err != nil {
		// Wire results are plain data; marshaling cannot fail.
		panic("store: marshal record: " + err.Error())
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Flush per record: a Put that returned is durable in the OS buffer
	// cache, so a coordinator crash loses at most the in-flight record.
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.written++
	s.puts++
	s.appendedBytes += int64(len(b))
	s.index[key] = res
	return nil
}

// Get returns the stored result for key.
func (s *Store) Get(key string) (wire.TrialResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.index[key]
	s.gets++
	if ok {
		s.hits++
	}
	return res, ok
}

// Len returns the number of stored results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats is a snapshot of the store's contents and lifetime traffic.
type Stats struct {
	// Results is the number of distinct stored results; Segments the highest
	// segment number on disk (segments are numbered from 1 with no gaps a
	// merge doesn't introduce, so this is also the segment count).
	Results, Segments int
	// Gets and Hits count lookups and the subset that found a result; Puts
	// counts records actually appended (deduplicated re-puts excluded), and
	// AppendedBytes their encoded size.
	Gets, Hits, Puts int64
	AppendedBytes    int64
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Results:       len(s.index),
		Segments:      s.seg,
		Gets:          s.gets,
		Hits:          s.hits,
		Puts:          s.puts,
		AppendedBytes: s.appendedBytes,
	}
}

// Register exposes the store on reg:
//
//	dynspread_store_results               gauge
//	dynspread_store_segments              gauge
//	dynspread_store_gets_total            counter
//	dynspread_store_hits_total            counter
//	dynspread_store_puts_total            counter
//	dynspread_store_appended_bytes_total  counter
//
// Values are sampled at scrape time, so the store pays nothing on its own
// paths beyond the counters it already keeps.
func (s *Store) Register(reg *obs.Registry) {
	reg.GaugeFunc("dynspread_store_results",
		"Distinct results resident in the store index.",
		func() float64 { return float64(s.Stats().Results) })
	reg.GaugeFunc("dynspread_store_segments",
		"Highest on-disk segment number (== segment count for unmerged stores).",
		func() float64 { return float64(s.Stats().Segments) })
	reg.CounterFunc("dynspread_store_gets_total",
		"Store lookups.",
		func() float64 { return float64(s.Stats().Gets) })
	reg.CounterFunc("dynspread_store_hits_total",
		"Store lookups that found a result.",
		func() float64 { return float64(s.Stats().Hits) })
	reg.CounterFunc("dynspread_store_puts_total",
		"Records appended (deduplicated re-puts excluded).",
		func() float64 { return float64(s.Stats().Puts) })
	reg.CounterFunc("dynspread_store_appended_bytes_total",
		"Encoded bytes appended to segments.",
		func() float64 { return float64(s.Stats().AppendedBytes) })
}

// Close flushes and closes the active segment. The store is unusable for
// Put afterwards; reads keep working off the index.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.closeActive()
}

var errClosed = fmt.Errorf("store: closed")
