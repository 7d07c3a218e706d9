package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"rayfade/internal/netio"
	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// The generated inputs. Every workload derives them from the run's seed
// through named streams, so a seed fixes the inputs exactly and two streams
// of one run never share draws. The system under test receives only the
// generated documents.

// streamSeed derives the seed of one named input stream of a run.
func streamSeed(seed uint64, stream string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return seed*0x9e3779b97f4a7c15 ^ h.Sum64()
}

// newRand returns the benchmark's own random stream for choices that are
// not model inputs (request mix, parameters).
func newRand(seed uint64, stream string) *rand.Rand {
	return rand.New(rand.NewPCG(streamSeed(seed, stream), 0x62656e6368))
}

// links is the topology size of every workload: the paper's Figure-1 size.
const links = 100

// topology is one generated network in the forms the workloads need.
type topology struct {
	net *network.Network
	// canon is the netio document: the upload body, the inline "network"
	// field of a request, and what the daemon hashes into a session ref.
	canon []byte
	ref   string
}

// newTopology draws one Figure-1 network (100 links on the paper's plane).
func newTopology(src *rng.Source) (topology, error) {
	net, err := network.Random(network.Figure1Config(), src)
	if err != nil {
		return topology{}, err
	}
	var buf bytes.Buffer
	if err := netio.Save(&buf, net); err != nil {
		return topology{}, err
	}
	return topology{net: net, canon: buf.Bytes(), ref: topologyRef(buf.Bytes())}, nil
}

// newTopologies draws n networks from one named stream.
func newTopologies(seed uint64, stream string, n int) ([]topology, error) {
	src := rng.New(streamSeed(seed, stream))
	out := make([]topology, n)
	for i := range out {
		t, err := newTopology(src)
		if err != nil {
			return nil, fmt.Errorf("generate topology %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}

// topologyRef is the documented session handle of a netio document:
// "sha256:" and the hex digest of its bytes.
func topologyRef(canon []byte) string {
	sum := sha256.Sum256(canon)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Request and response documents of the rayschedd API, as a client writes
// and reads them.

type estimateRequest struct {
	Network     json.RawMessage `json:"network,omitempty"`
	TopologyRef string          `json:"topology_ref,omitempty"`
	Beta        float64         `json:"beta,omitempty"`
	Prob        float64         `json:"prob,omitempty"`
	Samples     int             `json:"samples,omitempty"`
	Seed        uint64          `json:"seed,omitempty"`
	TimeoutMS   int64           `json:"timeout_ms,omitempty"`
}

type estimateResponse struct {
	Links   int     `json:"links"`
	Beta    float64 `json:"beta"`
	Prob    float64 `json:"prob"`
	Seed    uint64  `json:"seed"`
	Samples int     `json:"samples"`
	Mean    float64 `json:"mean"`
	Stderr  float64 `json:"stderr"`
	Exact   float64 `json:"exact"`
}

type scheduleRequest struct {
	Network     json.RawMessage `json:"network,omitempty"`
	TopologyRef string          `json:"topology_ref,omitempty"`
	Algorithm   string          `json:"algorithm,omitempty"`
	Beta        float64         `json:"beta,omitempty"`
	TimeoutMS   int64           `json:"timeout_ms,omitempty"`
}

type scheduleResponse struct {
	Algorithm        string    `json:"algorithm"`
	Links            int       `json:"links"`
	Beta             float64   `json:"beta"`
	Set              []int     `json:"set"`
	Size             int       `json:"size"`
	Value            float64   `json:"value"`
	Powers           []float64 `json:"powers,omitempty"`
	Lemma2Floor      float64   `json:"lemma2_floor"`
	ExpectedRayleigh float64   `json:"expected_rayleigh_successes"`
}

type topologyResponse struct {
	TopologyRef string `json:"topology_ref"`
	Links       int    `json:"links"`
	Created     bool   `json:"created"`
}
