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
func TopologyRef(canonical []byte) string { return refOf(sha256.Sum256(canonical)) }

// refOf is the session handle of a canonical-serialization digest.
func refOf(digest [sha256.Size]byte) string { return "sha256:" + hex.EncodeToString(digest[:]) }

// topology is one resolved topology: the parsed network the compute layers
// consume and the SHA-256 of its canonical netio serialization, which
// request keys hash and session refs name. The canonical bytes themselves
// are not kept. A registered topology is a session entry and also carries
// its compiled-topology memo (see Server.compile); an inline one is built
// per request and its memo stays empty. The network and digest are
// immutable after construction, so one entry is shared by every concurrent
// request that references it.
type topology struct {
	net    *network.Network
	digest [sha256.Size]byte
	memo   memo
}

// newTopology pairs a parsed network with its canonical serialization.
func newTopology(net *network.Network, canon []byte) *topology {
	return &topology{net: net, digest: sha256.Sum256(canon)}
}

// SessionStore is the bounded LRU of uploaded topologies keyed by their
// content hash (see TopologyRef). It is the daemon's amortization of the
// per-request topology parse: POST /v1/topology pays the JSON decode,
// validation, and canonicalization once, and every later request that sends
// topology_ref skips all three — and, from its second compute on, the gain
// matrix build too, which the entry memoizes.
//
// The store is deliberately an LRU rather than a TTL map: refs are
// content-derived, so eviction is always recoverable (the client re-uploads
// and gets the same handle back), and a bounded entry count — not wall-clock
// age — is what protects the daemon's memory against ref churn.
type SessionStore struct {
	*lru[string, *topology]
}

// NewSessionStore returns a store holding at most capacity topologies.
// capacity <= 0 disables the store: Put fails with ErrSessionsDisabled and
// every lookup misses. Lookups by ref go through the embedded lru's get, which
// misses for refs never uploaded or evicted.
func NewSessionStore(capacity int) *SessionStore {
	return &SessionStore{newLRU[string, *topology](capacity)}
}

// Put registers a topology (its canonical serialization plus the parsed
// network) and returns its ref. created reports whether the upload inserted
// a new entry; re-uploading a registered topology just refreshes its
// recency and keeps the entry, memo included. The caller must not mutate
// net afterwards.
func (s *SessionStore) Put(canon []byte, net *network.Network) (ref string, created bool, err error) {
	if s.cap <= 0 {
		return "", false, ErrSessionsDisabled
	}
	t := newTopology(net, canon)
	ref = refOf(t.digest)
	_, created = s.add(ref, func() *topology { return t })
	return ref, created, nil
}
