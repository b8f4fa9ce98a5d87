package service

import (
	"container/list"
	"sync"

	"dynspread/internal/wire"
)

// Cache is the in-memory run cache of a server without Config.Store:
// canonical-spec key (wire.Key) → completed trial result, LRU-bounded, safe
// for concurrent use. Repeated requests for a spec already served cost a map
// lookup instead of a simulation. It is a store.Results, consulted only
// through store.Lookup.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	res wire.TrialResult
}

// NewCache returns a cache bounded to capacity entries (capacity < 1 is
// clamped to 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get looks the key up, marking the entry most recently used.
func (c *Cache) Get(key string) (wire.TrialResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return wire.TrialResult{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores res under key, evicting the least recently used entry when the
// cache is full. Storing an existing key refreshes its recency. The error is
// always nil; it is there to satisfy store.Results.
func (c *Cache) Put(key string, res wire.TrialResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return nil
	}
	for c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	return nil
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
