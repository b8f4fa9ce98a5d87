package store

import (
	"errors"
	"reflect"
	"testing"

	"dynspread/internal/wire"
)

// countingResults is an in-memory Results that counts its calls and can be
// told to fail every Put.
type countingResults struct {
	m          map[string]wire.TrialResult
	gets, puts int
	putErr     error
}

func (c *countingResults) Get(key string) (wire.TrialResult, bool) {
	c.gets++
	r, ok := c.m[key]
	return r, ok
}

func (c *countingResults) Put(key string, res wire.TrialResult) error {
	c.puts++
	if c.putErr != nil {
		return c.putErr
	}
	c.m[key] = res
	return nil
}

func TestLookup(t *testing.T) {
	spec := func(seed int64) wire.TrialSpec {
		return wire.TrialSpec{N: 10, K: 10, Algorithm: "single-source", Adversary: "churn", Seed: seed}
	}
	a, b, c := spec(1), spec(2), spec(3)
	cached := wire.TrialResult{Rounds: 7}
	// a is cached; b and c are not; a and b appear twice, c once.
	specs := []wire.TrialSpec{a, b, a, c, b}
	newResults := func() *countingResults {
		return &countingResults{m: map[string]wire.TrialResult{wire.Key(a): cached}}
	}
	collect := func() (map[int]wire.TrialResult, func(int, wire.TrialResult)) {
		got := map[int]wire.TrialResult{}
		return got, func(i int, r wire.TrialResult) {
			if _, dup := got[i]; dup {
				t.Errorf("index %d delivered twice", i)
			}
			got[i] = r
		}
	}

	t.Run("hits fan out, duplicates collapse", func(t *testing.T) {
		res := newResults()
		got, onResult := collect()
		batch := Lookup(specs, res, nil, onResult)
		if batch.Hits != 2 || batch.Unique != 3 || res.gets != 3 {
			t.Fatalf("hits %d unique %d gets %d, want 2 3 3", batch.Hits, batch.Unique, res.gets)
		}
		if !reflect.DeepEqual(got, map[int]wire.TrialResult{0: cached, 2: cached}) {
			t.Fatalf("hits delivered to %v", got)
		}
		wantMisses := []wire.TrialSpec{b.Normalized(), c.Normalized()}
		if !reflect.DeepEqual(batch.Misses, wantMisses) ||
			!reflect.DeepEqual(batch.Keys, []string{wire.Key(b), wire.Key(c)}) {
			t.Fatalf("misses %+v keys %v", batch.Misses, batch.Keys)
		}
		for i, k := range batch.Keys {
			if err := batch.Deliver(k, wire.TrialResult{Rounds: 10 + i}); err != nil {
				t.Fatal(err)
			}
		}
		if res.puts != 2 || res.m[wire.Key(c)].Rounds != 11 {
			t.Fatalf("puts %d, stored %+v", res.puts, res.m)
		}
		if len(got) != len(specs) || got[1].Rounds != 10 || got[4].Rounds != 10 || got[3].Rounds != 11 {
			t.Fatalf("misses delivered as %v", got)
		}
	})

	t.Run("recorded runs bypass results", func(t *testing.T) {
		res := newResults()
		got, onResult := collect()
		batch := Lookup(specs, res, &wire.RecordSpec{}, onResult)
		if batch.Hits != 0 || len(batch.Misses) != 3 || len(got) != 0 {
			t.Fatalf("recorded lookup served %d hits (%d delivered), %d misses", batch.Hits, len(got), len(batch.Misses))
		}
		for _, k := range batch.Keys {
			if err := batch.Deliver(k, wire.TrialResult{}); err != nil {
				t.Fatal(err)
			}
		}
		if res.gets != 0 || res.puts != 0 || len(got) != len(specs) {
			t.Fatalf("gets %d puts %d delivered %d", res.gets, res.puts, len(got))
		}
	})

	t.Run("put errors surface", func(t *testing.T) {
		res := newResults()
		res.putErr = errors.New("disk full")
		got, onResult := collect()
		batch := Lookup(specs, res, nil, onResult)
		if err := batch.Deliver(batch.Keys[0], wire.TrialResult{}); !errors.Is(err, res.putErr) {
			t.Fatalf("Deliver error = %v", err)
		}
		if len(got) != 2 {
			t.Fatalf("a failed Put still delivered: %v", got)
		}
	})

	t.Run("nil results", func(t *testing.T) {
		got, onResult := collect()
		batch := Lookup(specs, nil, nil, onResult)
		if batch.Hits != 0 || len(batch.Misses) != 3 || batch.Unique != 3 {
			t.Fatalf("hits %d misses %d unique %d", batch.Hits, len(batch.Misses), batch.Unique)
		}
		for _, k := range batch.Keys {
			if err := batch.Deliver(k, wire.TrialResult{}); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(specs) {
			t.Fatalf("delivered %d of %d", len(got), len(specs))
		}
	})
}
