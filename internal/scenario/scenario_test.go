package scenario

import (
	"strings"
	"testing"
)

func TestRegisterLookupScenarios(t *testing.T) {
	spec := Spec{
		Name: "test-lookup", Doc: "test",
		N: 8, K: 4,
		DefaultAlgorithm: "single-source",
		Adversary:        "static",
	}
	RegisterScenario(spec)
	got, err := LookupScenario("test-lookup")
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 8 || got.K != 4 || got.NumSources() != 1 {
		t.Fatalf("lookup returned %+v", got)
	}
	if _, err := LookupScenario("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("missing scenario error: %v", err)
	}
	all := Scenarios()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("Scenarios() not sorted: %q >= %q", all[i-1].Name, all[i].Name)
		}
	}
	found := false
	for _, s := range all {
		if s.Name == "test-lookup" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered scenario missing from Scenarios()")
	}
}

func TestSpecInfoDerivation(t *testing.T) {
	spec, err := LookupScenario("token-stream")
	if err != nil {
		t.Fatal(err)
	}
	info := spec.Info()
	if info.Name != "token-stream" || info.N != spec.N || info.K != spec.K {
		t.Fatalf("info = %+v", info)
	}
	if info.Sources != spec.NumSources() || info.Dynamics != spec.Adversary || info.Schedule != spec.ScheduleName() {
		t.Fatalf("derived fields wrong: %+v", info)
	}
	if info.DefaultAlgorithm != spec.DefaultAlgorithm || info.Doc == "" {
		t.Fatalf("info = %+v", info)
	}
}

func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want mention of %q", r, want)
		}
	}()
	f()
}

func TestRegisterScenarioRejectsInvalidSpecs(t *testing.T) {
	base := Spec{Name: "test-invalid", N: 8, K: 4, Adversary: "static"}
	expectPanic(t, "empty name", func() {
		s := base
		s.Name = ""
		RegisterScenario(s)
	})
	expectPanic(t, "N >= 2", func() {
		s := base
		s.N = 1
		RegisterScenario(s)
	})
	expectPanic(t, "K >= 1", func() {
		s := base
		s.K = 0
		RegisterScenario(s)
	})
	expectPanic(t, "sources", func() {
		s := base
		s.Sources = 9
		RegisterScenario(s)
	})
	expectPanic(t, "no adversary", func() {
		s := base
		s.Adversary = ""
		RegisterScenario(s)
	})
	expectPanic(t, "explicit schedule has 2 entries", func() {
		s := base
		s.Schedule = Explicit{At: []int{1, 2}}
		RegisterScenario(s)
	})
	expectPanic(t, "registered twice", func() {
		s := base
		s.Name = "test-dup"
		RegisterScenario(s)
		RegisterScenario(s)
	})
}

func TestBuiltinScenariosAreWellFormed(t *testing.T) {
	for _, name := range []string{
		"quickstart", "sensornet", "p2pchurn", "mobilemesh",
		"streaming", "walkcenters", "token-stream", "bursty-gossip",
	} {
		spec, err := LookupScenario(name)
		if err != nil {
			t.Errorf("builtin %q not registered: %v", name, err)
			continue
		}
		if spec.Doc == "" || spec.DefaultAlgorithm == "" {
			t.Errorf("builtin %q missing doc or default algorithm: %+v", name, spec)
		}
		if _, err := spec.ArrivalRounds(1); err != nil {
			t.Errorf("builtin %q schedule: %v", name, err)
		}
	}
}

func TestScheduleShapes(t *testing.T) {
	check := func(s Schedule, k int, seed int64) []int {
		t.Helper()
		rounds, err := s.Rounds(k, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(rounds) != k {
			t.Fatalf("%s: %d rounds for k=%d", s, len(rounds), k)
		}
		for i, r := range rounds {
			if r < 0 {
				t.Fatalf("%s: token %d at negative round %d", s, i, r)
			}
		}
		return rounds
	}

	if r := check(Burst{}, 4, 1); r[0] != 0 || r[3] != 0 {
		t.Fatalf("burst@0 = %v", r)
	}
	if r := check(Burst{Round: 9}, 3, 1); r[0] != 9 || r[2] != 9 {
		t.Fatalf("burst@9 = %v", r)
	}
	if r := check(Uniform{Start: 2, Every: 3, Batch: 2}, 6, 1); r[0] != 2 || r[1] != 2 || r[2] != 5 || r[5] != 8 {
		t.Fatalf("uniform = %v", r)
	}
	// Uniform zero values default to one token per round from round 1.
	if r := check(Uniform{}, 3, 1); r[0] != 1 || r[1] != 2 || r[2] != 3 {
		t.Fatalf("uniform defaults = %v", r)
	}
	p1 := check(Poisson{MeanGap: 2}, 16, 7)
	p2 := check(Poisson{MeanGap: 2}, 16, 7)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("poisson not deterministic per seed: %v vs %v", p1, p2)
		}
		if i > 0 && p1[i] < p1[i-1] {
			t.Fatalf("poisson arrivals not monotone: %v", p1)
		}
	}
	p3 := check(Poisson{MeanGap: 2}, 16, 8)
	same := true
	for i := range p1 {
		if p1[i] != p3[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("poisson ignored the seed: %v", p1)
	}
	if r := check(Explicit{At: []int{0, 4, 2}}, 3, 1); r[1] != 4 {
		t.Fatalf("explicit = %v", r)
	}
	if _, err := (Explicit{At: []int{1}}).Rounds(3, 1); err == nil {
		t.Fatal("explicit length mismatch accepted")
	}
	if _, err := (Burst{Round: -1}).Rounds(3, 1); err == nil {
		t.Fatal("negative burst accepted")
	}
}
