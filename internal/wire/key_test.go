package wire

import (
	"encoding/json"
	"testing"
)

func TestKeyIsDeterministicAndDiscriminating(t *testing.T) {
	a := TrialSpec{N: 16, K: 8, Algorithm: "single-source", Adversary: "churn", Seed: 1}
	if Key(a) != Key(a) {
		t.Fatal("same spec hashed to different keys")
	}
	// Normalization: an explicit default source count shares the entry.
	explicit := a
	explicit.Sources = 1
	if Key(a) != Key(explicit) {
		t.Fatal("sources=0 and sources=1 must share a key for classic trials")
	}
	distinct := []TrialSpec{a}
	for _, mutate := range []func(*TrialSpec){
		func(s *TrialSpec) { s.Seed = 2 },
		func(s *TrialSpec) { s.K = 9 },
		func(s *TrialSpec) { s.Algorithm = "topkis" },
		func(s *TrialSpec) { s.Adversary = "static" },
		func(s *TrialSpec) { s.Sigma = 5 },
		func(s *TrialSpec) { s.Arrivals = []int{0, 0, 0, 0, 1, 1, 1, 1} },
	} {
		v := a
		mutate(&v)
		distinct = append(distinct, v)
	}
	seen := map[string]int{}
	for i, s := range distinct {
		k := Key(s)
		if prev, dup := seen[k]; dup {
			t.Fatalf("specs %d and %d collide: %+v vs %+v", prev, i, distinct[prev], s)
		}
		seen[k] = i
	}
}

// FuzzRunRequest: RunRequest.Specs never panics on a request decoded from
// arbitrary JSON, and whatever it accepts is safe to key and run: every spec
// passes Validate, Key works on it, and the grid part stays within
// MaxWireTrials.
func FuzzRunRequest(f *testing.F) {
	f.Add([]byte(`{"trials":[{"n":16,"k":8,"algorithm":"single-source","adversary":"churn","seed":1}],"grid":{"ns":[8,12],"ks":[4],"algorithms":["flooding"],"adversaries":["static","free-edge"],"seeds":[1,2]},"record":{"stride":2}}`))
	f.Add([]byte(`{"grid":{"scenarios":["token-stream"],"seeds":[3]}}`))
	// 16^6 trials: over MaxWireTrials, so rejected before expansion.
	f.Add([]byte(`{"grid":{"ns":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],"ks":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],"sources":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],"algorithms":["a","b","c","d","e","f","g","h","i","j","k","l","m","n","o","p"],"adversaries":["a","b","c","d","e","f","g","h","i","j","k","l","m","n","o","p"],"seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}}`))
	f.Add([]byte(`{"trials":[{"n":-1,"k":1099511627776,"arrivals":[-3]}],"record":{"capacity":-1}}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		var req RunRequest
		if json.Unmarshal(in, &req) != nil {
			return
		}
		specs, err := req.Specs()
		if err != nil {
			return
		}
		if grid := len(specs) - len(req.Trials); grid > MaxWireTrials {
			t.Fatalf("grid part has %d specs, more than MaxWireTrials = %d", grid, MaxWireTrials)
		}
		for i, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted spec %d fails Validate: %v", i, err)
			}
			if len(Key(s)) != 64 {
				t.Fatalf("spec %d: Key is not a SHA-256 hex digest", i)
			}
		}
	})
}
