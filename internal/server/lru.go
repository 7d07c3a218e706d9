package server

import (
	"container/list"
	"sync"
)

// lru is the daemon's one bounded map: a thread-safe least-recently-used
// store with hit/miss/eviction tallies. It backs the response cache (keyed
// by the canonical request hash), its raw-body aliases (keyed by the raw
// body's digest), the topology sessions (keyed by TopologyRef) and the
// per-trace span collectors (keyed by trace ID).
//
// A capacity <= 0 stores nothing: get always misses and add hands back a
// fresh value without keeping it.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry
	items map[K]*list.Element

	hits, misses, evictions uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, order: list.New(), items: make(map[K]*list.Element)}
}

// get returns the value under k, refreshing its recency and counting the
// lookup as a hit or a miss.
func (c *lru[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// add returns the value under k, inserting mk() when k is absent (created
// reports the insertion) and evicting the least recently used entry past
// capacity. mk runs under the lock, so concurrent first uses of one key all
// receive the same value; it must be cheap and must not use c. add
// refreshes recency but does not count as a lookup.
func (c *lru[K, V]) add(k K, mk func() V) (v V, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, false
	}
	v = mk()
	if c.cap <= 0 {
		return v, true
	}
	c.items[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
		c.evictions++
	}
	return v, true
}

// peek returns the value under k without counting a lookup or refreshing
// its recency.
func (c *lru[K, V]) peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// each calls f on every resident value, under the lock: f must be cheap and
// must not use c.
func (c *lru[K, V]) each(f func(V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		f(el.Value.(*lruEntry[K, V]).val)
	}
}

// len returns the number of resident entries.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// stats returns the cumulative get hits and misses and the evictions.
func (c *lru[K, V]) stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
