package token

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleSource(t *testing.T) {
	a, err := SingleSource(10, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.K() != 5 || a.N() != 10 {
		t.Fatalf("K=%d N=%d", a.K(), a.N())
	}
	if a.NumSources() != 1 || a.sources[0] != 3 {
		t.Fatalf("sources = %v", a.sources)
	}
	if len(a.TokensOf(3)) != 5 || len(a.TokensOf(0)) != 0 {
		t.Fatal("token counts wrong")
	}
	for i, g := range a.TokensOf(3) {
		info := a.Info(g)
		if info.Source != 3 || info.Index != i+1 {
			t.Fatalf("Info(%d) = %+v", g, info)
		}
	}
	if a.RequiredLearnings() != 45 {
		t.Fatalf("RequiredLearnings = %d", a.RequiredLearnings())
	}
}

func TestGossip(t *testing.T) {
	a, err := Gossip(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.K() != 7 || a.NumSources() != 7 {
		t.Fatalf("K=%d s=%d", a.K(), a.NumSources())
	}
	for v := 0; v < 7; v++ {
		if len(a.TokensOf(v)) != 1 {
			t.Fatalf("len(TokensOf(%d)) = %d", v, len(a.TokensOf(v)))
		}
		toks := a.TokensOf(v)
		if len(toks) != 1 || a.Info(toks[0]).Source != v || a.Info(toks[0]).Index != 1 {
			t.Fatalf("TokensOf(%d) = %v", v, toks)
		}
	}
}

func TestBalanced(t *testing.T) {
	a, err := Balanced(10, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSources() != 4 {
		t.Fatalf("NumSources = %d", a.NumSources())
	}
	total := 0
	for _, s := range a.sources {
		c := len(a.TokensOf(s))
		if c < 2 || c > 3 {
			t.Fatalf("len(TokensOf(%d)) = %d, want 2 or 3", s, c)
		}
		total += c
	}
	if total != 11 {
		t.Fatalf("total = %d", total)
	}
}

func TestBalancedErrors(t *testing.T) {
	if _, err := Balanced(5, 10, 0); err == nil {
		t.Fatal("s=0 accepted")
	}
	if _, err := Balanced(5, 10, 6); err == nil {
		t.Fatal("s>n accepted")
	}
	if _, err := Balanced(5, 2, 3); err == nil {
		t.Fatal("k<s accepted")
	}
}

func TestNewAssignmentOutOfRange(t *testing.T) {
	if _, err := NewAssignment(5, []int{0, 5}); err == nil {
		t.Fatal("holder out of range accepted")
	}
	if _, err := NewAssignment(5, []int{-1}); err == nil {
		t.Fatal("negative holder accepted")
	}
}

func TestSourcesSorted(t *testing.T) {
	a, err := NewAssignment(10, []int{9, 3, 7, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 7, 9}
	got := a.sources
	if len(got) != len(want) {
		t.Fatalf("Sources = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sources = %v, want %v", got, want)
		}
	}
	// Per-source indices are 1..count, in TokensOf order.
	if len(a.TokensOf(3)) != 2 {
		t.Fatalf("len(TokensOf(3)) = %d", len(a.TokensOf(3)))
	}
	for _, src := range got {
		for i, g := range a.TokensOf(src) {
			if info := a.Info(g); info.Source != src || info.Index != i+1 {
				t.Fatalf("token %d of source %d has info %+v", g, src, info)
			}
		}
	}
}

// Property: Info(g) points back at g's slot in TokensOf, and counts add to
// k.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, kk, nn uint8) bool {
		n := int(nn)%30 + 1
		k := int(kk)%100 + 1
		rng := rand.New(rand.NewSource(seed))
		holders := make([]int, k)
		for i := range holders {
			holders[i] = rng.Intn(n)
		}
		a, err := NewAssignment(n, holders)
		if err != nil {
			return false
		}
		total := 0
		for _, s := range a.sources {
			total += len(a.TokensOf(s))
		}
		if total != k {
			return false
		}
		for g := 0; g < k; g++ {
			info := a.Info(g)
			if info.Source != holders[g] {
				return false
			}
			toks := a.TokensOf(info.Source)
			if info.Index < 1 || info.Index > len(toks) || toks[info.Index-1] != g {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
