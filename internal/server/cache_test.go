package server

import (
	"bytes"
	"fmt"
	"testing"
)

// newBodyLRU is the response-cache instantiation of the generic LRU.
func newBodyLRU(capacity int) *lru[string, []byte] { return newLRU[string, []byte](capacity) }

// put inserts body under key the way respond fills the cache.
func put(c *lru[string, []byte], key, body string) {
	c.add(key, func() []byte { return []byte(body) })
}

func TestCacheHitMiss(t *testing.T) {
	c := newBodyLRU(4)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	put(c, "a", "body-a")
	body, ok := c.get("a")
	if !ok || !bytes.Equal(body, []byte("body-a")) {
		t.Fatalf("got %q ok=%v", body, ok)
	}
	hits, misses, _ := c.stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", hits, misses)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := newBodyLRU(2)
	put(c, "a", "A")
	put(c, "b", "B")
	c.get("a") // refresh a: b becomes the eviction candidate
	put(c, "c", "C")
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("entry %s evicted wrongly", k)
		}
	}
	if _, _, evictions := c.stats(); c.len() != 2 || evictions != 1 {
		t.Fatalf("len %d evictions %d", c.len(), evictions)
	}
}

// TestCacheUpdateExistingKey: adding a resident key keeps its value (cache
// values are a pure function of the key, so the first copy is as good as
// any), reports created=false, and refreshes its recency.
func TestCacheUpdateExistingKey(t *testing.T) {
	c := newBodyLRU(2)
	if _, created := c.add("a", func() []byte { return []byte("first") }); !created {
		t.Fatal("first add reported created=false")
	}
	put(c, "b", "B")
	body, created := c.add("a", func() []byte { t.Fatal("mk called for a resident key"); return nil })
	if created || string(body) != "first" {
		t.Fatalf("re-add: body %q created=%v", body, created)
	}
	put(c, "c", "C") // a was refreshed, so b is evicted
	if _, ok := c.get("b"); ok {
		t.Fatal("re-add did not refresh recency")
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newBodyLRU(0)
	put(c, "a", "A")
	if _, ok := c.get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if c.len() != 0 {
		t.Fatalf("len %d", c.len())
	}
}

func TestCacheManyKeysStaysBounded(t *testing.T) {
	c := newBodyLRU(8)
	for i := 0; i < 100; i++ {
		put(c, fmt.Sprintf("k%d", i), "v")
	}
	if c.len() != 8 {
		t.Fatalf("len %d, want 8", c.len())
	}
}
