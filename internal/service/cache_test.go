package service

import (
	"fmt"
	"testing"

	"dynspread/internal/wire"
)

func TestCacheLRUEvictionAndCounters(t *testing.T) {
	c := NewCache(2)
	res := func(rounds int) wire.TrialResult {
		return wire.TrialResult{Rounds: rounds, Completed: true}
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", res(1))
	c.Put("b", res(2))
	if got, ok := c.Get("a"); !ok || got.Rounds != 1 {
		t.Fatalf("a: %+v %v", got, ok)
	}
	// a is now most recent; inserting c evicts b.
	c.Put("c", res(3))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	// Re-putting a key refreshes in place without growing.
	c.Put("a", res(9))
	if got, _ := c.Get("a"); got.Rounds != 9 || c.Len() != 2 {
		t.Fatalf("refresh failed: %+v len=%d", got, c.Len())
	}
}

func TestCacheCapacityClamp(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprint(i), wire.TrialResult{Rounds: i})
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}
