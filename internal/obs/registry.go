package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is one named monotonic tally. The counting method is a single
// atomic add, cheap enough for batched inner-loop use; a nil *Counter is a
// valid "counting off" value (Add is a no-op, Load reports 0).
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registry name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add accumulates n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value. Nil-safe (0).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is a concurrency-safe set of named counters. It is the single
// substrate the progress reporter, the daemon's /metrics page, and the
// /debug/obs endpoint all render views of — one tally, several faces.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns the named counter, creating it at zero on first use.
// Callers cache the pointer and Add on it directly — the lookup is off the
// hot path. Nil-safe (returns a nil counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{name: name}
	r.counters[name] = c
	return c
}

// Snapshot returns a point-in-time copy of every counter. Nil-safe (nil).
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	return out
}
