package registry

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"dynspread/internal/sim"
)

func fakeUnicastBuilder(Params) (sim.Factory, error)            { return nil, nil }
func fakeBroadcastBuilder(Params) (sim.BroadcastFactory, error) { return nil, nil }
func fakeAdvBuilder(Params) (sim.Adversary, error)              { return nil, nil }

func TestRegisterAndLookupAlgorithm(t *testing.T) {
	RegisterAlgorithm(Algorithm{
		Name: "test-alg", Doc: "test", Mode: Unicast, Unicast: fakeUnicastBuilder,
	})
	spec, err := LookupAlgorithm("test-alg")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mode != Unicast || spec.Unicast == nil {
		t.Fatalf("bad spec %+v", spec)
	}
	found := false
	for _, s := range Algorithms() {
		if s.Name == "test-alg" {
			found = true
		}
	}
	if !found {
		t.Fatal("test-alg missing from listing")
	}
}

func TestLookupUnknownNamesKnown(t *testing.T) {
	_, err := LookupAlgorithm("definitely-not-registered")
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("err = %v", err)
	}
	if _, err := LookupAdversary("definitely-not-registered"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	RegisterAlgorithm(Algorithm{Name: "dup-alg", Mode: Broadcast, Broadcast: fakeBroadcastBuilder})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	RegisterAlgorithm(Algorithm{Name: "dup-alg", Mode: Broadcast, Broadcast: fakeBroadcastBuilder})
}

func TestRegisterPanicsOnModeBuilderMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mode/builder mismatch must panic")
		}
	}()
	RegisterAlgorithm(Algorithm{Name: "broken-alg", Mode: Unicast, Broadcast: fakeBroadcastBuilder})
}

func TestRegisterAdversaryModeMask(t *testing.T) {
	RegisterAdversary(Adversary{Name: "test-adv", Modes: Unicast, New: fakeAdvBuilder})
	spec, err := LookupAdversary("test-adv")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Modes.Has(Unicast) || spec.Modes.Has(Broadcast) {
		t.Fatalf("bad modes %v", spec.Modes)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("adversary without a builder must panic")
		}
	}()
	RegisterAdversary(Adversary{Name: "broken-adv", Modes: Unicast | Broadcast})
}

// TestListingsSorted pins the listing order: Algorithms and Adversaries
// return name-sorted slices, so every consumer (spreadsim -list, spreadd's
// /v1/catalog, cache-key derivations) sees one deterministic order. The
// builtin name lists themselves are pinned where the builtins are linked in
// (internal/service's catalog test).
func TestListingsSorted(t *testing.T) {
	RegisterAlgorithm(Algorithm{Name: "zz-order-probe", Mode: Unicast, Unicast: fakeUnicastBuilder})
	RegisterAlgorithm(Algorithm{Name: "aa-order-probe", Mode: Unicast, Unicast: fakeUnicastBuilder})
	algs := Algorithms()
	if !sort.SliceIsSorted(algs, func(i, j int) bool { return algs[i].Name < algs[j].Name }) {
		t.Fatalf("Algorithms() not sorted: %v", names(algs, func(a Algorithm) string { return a.Name }))
	}
	RegisterAdversary(Adversary{Name: "zz-order-probe", Modes: Unicast, New: fakeAdvBuilder})
	RegisterAdversary(Adversary{Name: "aa-order-probe", Modes: Unicast, New: fakeAdvBuilder})
	advs := Adversaries()
	if !sort.SliceIsSorted(advs, func(i, j int) bool { return advs[i].Name < advs[j].Name }) {
		t.Fatalf("Adversaries() not sorted: %v", names(advs, func(a Adversary) string { return a.Name }))
	}
}

func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	return out
}

func TestModeJSONRoundTrip(t *testing.T) {
	for _, m := range []Mode{Unicast, Broadcast, Unicast | Broadcast, 0} {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + m.String() + `"`; string(b) != want {
			t.Fatalf("marshal %v = %s, want %s", m, b, want)
		}
		var back Mode
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Fatalf("round trip %v -> %v", m, back)
		}
	}
	var m Mode
	if err := json.Unmarshal([]byte(`"warp"`), &m); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := json.Unmarshal([]byte(`3`), &m); err == nil {
		t.Fatal("numeric mode accepted")
	}
}

func TestModeString(t *testing.T) {
	for mode, want := range map[Mode]string{
		Unicast:             "unicast",
		Broadcast:           "broadcast",
		Unicast | Broadcast: "unicast|broadcast",
		0:                   "none",
	} {
		if got := mode.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", mode, got, want)
		}
	}
}
