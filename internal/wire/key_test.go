package wire

import "testing"

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
