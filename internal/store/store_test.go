package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dynspread/internal/wire"
)

func result(seed int64, rounds int) (string, wire.TrialResult) {
	spec := wire.TrialSpec{N: 10, K: 10, Algorithm: "single-source", Adversary: "churn", Seed: seed}
	return wire.Key(spec), wire.TrialResult{
		Trial: spec.Normalized(), Adversary: "churn", Completed: true, Rounds: rounds,
		AmortizedPerToken: float64(rounds) / 3,
	}
}

func TestStorePutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, 10)
	for seed := int64(0); seed < 10; seed++ {
		k, r := result(seed, int(seed)+5)
		if err := s.Put(k, r); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if _, ok := s.Get(keys[3]); s.Len() != 10 || !ok {
		t.Fatalf("len=%d has=%v", s.Len(), ok)
	}
	// Duplicate Put is a no-op.
	k0, r0 := result(0, 5)
	if err := s.Put(k0, r0); err != nil || s.Len() != 10 {
		t.Fatalf("dup put: %v len=%d", err, s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything survives, bit-identical.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("reopened len=%d", s2.Len())
	}
	for seed := int64(0); seed < 10; seed++ {
		k, want := result(seed, int(seed)+5)
		got, ok := s2.Get(k)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: ok=%v\n got %+v\nwant %+v", seed, ok, got, want)
		}
	}
	// Appending after reopen goes to a fresh segment and is found again.
	k, r := result(99, 42)
	if err := s2.Put(k, r); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got, ok := s3.Get(k); !ok || got.Rounds != 42 {
		t.Fatalf("post-reopen append lost: %+v %v", got, ok)
	}
}

func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Force rotation cheaply by writing MaxSegmentRecords+2 distinct keys.
	for i := 0; i < MaxSegmentRecords+2; i++ {
		k, r := result(int64(i), i)
		if err := s.Put(k, r); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.jsonl"))
	if len(segs) != 2 {
		t.Fatalf("want 2 segments after rotation, got %v", segs)
	}
}

// TestStoreToleratesTornTail: a half-written final line (the crash shape of
// an append-only log) is skipped on Open; intact records before it load.
func TestStoreToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	k, r := result(1, 7)
	if err := s.Put(k, r); err != nil {
		t.Fatal(err)
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.jsonl"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn","result":{"tri`) // no newline, truncated JSON
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail failed Open: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Get(k); s2.Len() != 1 || !ok {
		t.Fatalf("intact record lost: len=%d", s2.Len())
	}
	// A fresh Put lands in a NEW segment, never after the torn line.
	k2, r2 := result(2, 9)
	if err := s2.Put(k2, r2); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("post-crash append lost: len=%d", s3.Len())
	}
}

// A malformed interior line is corruption, not a crash artifact: Open fails
// loudly instead of silently dropping results.
func TestStoreRejectsInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	k, r := result(1, 7)
	s.Put(k, r)
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.jsonl"))
	b, _ := os.ReadFile(segs[0])
	os.WriteFile(segs[0], append([]byte("not json\n"), b...), 0o644)
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), segs[0]) {
		t.Fatalf("interior corruption accepted: %v", err)
	}
}

func TestStoreConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k, r := result(int64(i), i) // all workers collide on purpose
				if err := s.Put(k, r); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Get(k); !ok {
					t.Errorf("key written by this goroutine missing")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 50 {
		t.Fatalf("len=%d, want 50", s.Len())
	}
}

func TestStorePutAfterCloseFails(t *testing.T) {
	s, _ := Open(t.TempDir())
	s.Close()
	if err := s.Put("k", wire.TrialResult{}); err == nil {
		t.Fatal("Put after Close succeeded")
	}
}
