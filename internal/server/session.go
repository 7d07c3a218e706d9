package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"

	"rayfade/internal/network"
)

// ErrSessionsDisabled is returned by SessionStore.Put when the store was
// built with a non-positive capacity: the deployment has opted out of the
// session API, so uploads must fail loudly instead of silently registering
// refs that every later lookup would miss.
var ErrSessionsDisabled = errors.New("server: topology sessions disabled")

// TopologyRef returns the canonical session handle for a topology: "sha256:"
// plus the hex digest of its canonical netio serialization. The ref is
// content-derived, so re-uploading an identical topology (even from another
// client, even after an eviction) always yields the same handle, and a
// handle can be computed offline without talking to the daemon.
func TopologyRef(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// sessionEntry is one registered topology: the parsed network the compute
// layers consume and the canonical bytes request keys hash. Both are
// immutable after insertion — the parsed *network.Network is shared by every
// concurrent request that references it, which is safe because the compute
// paths only read it (Gains builds a fresh Matrix per call).
type sessionEntry struct {
	net   *network.Network
	canon []byte
}

// SessionStore is the bounded LRU of uploaded topologies keyed by their
// content hash (see TopologyRef). It is the daemon's amortization of the
// per-request topology parse: POST /v1/topology pays the JSON decode,
// validation, and canonicalization once, and every later request that sends
// topology_ref skips all three.
//
// The store is deliberately an LRU rather than a TTL map: refs are
// content-derived, so eviction is always recoverable (the client re-uploads
// and gets the same handle back), and a bounded entry count — not wall-clock
// age — is what protects the daemon's memory against ref churn.
type SessionStore struct {
	*lru[string, sessionEntry]
}

// NewSessionStore returns a store holding at most capacity topologies.
// capacity <= 0 disables the store: Put fails with ErrSessionsDisabled and
// every Get misses.
func NewSessionStore(capacity int) *SessionStore {
	return &SessionStore{newLRU[string, sessionEntry](capacity)}
}

// Put registers a topology (its canonical serialization plus the parsed
// network) and returns its ref. created reports whether the upload inserted
// a new entry; re-uploading a registered topology just refreshes its
// recency. The caller must not mutate canon or net afterwards.
func (s *SessionStore) Put(canon []byte, net *network.Network) (ref string, created bool, err error) {
	if s.cap <= 0 {
		return "", false, ErrSessionsDisabled
	}
	ref = TopologyRef(canon)
	_, created = s.add(ref, func() sessionEntry { return sessionEntry{net: net, canon: canon} })
	return ref, created, nil
}

// Get resolves a ref to its parsed network and canonical bytes. ok is false
// for refs never uploaded, evicted, or when the store is disabled.
func (s *SessionStore) Get(ref string) (net *network.Network, canon []byte, ok bool) {
	e, ok := s.get(ref)
	return e.net, e.canon, ok
}
