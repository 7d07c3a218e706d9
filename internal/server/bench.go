package server

// Bench hooks: exported helpers for cmd/raybench's rayschedd throughput
// scenarios. They live in the server package (not the bench binary) so the
// request bodies are built from the same netio canonical form and request
// schemas the handlers decode — a schema change breaks the bench at compile
// time instead of silently measuring 400s.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rayfade/internal/netio"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sim"
)

// BenchTopology returns the canonical netio serialization of a
// deterministic Figure-1-style random network with n links. The same
// (links, seed) pair always yields byte-identical output, so cache-hit
// scenarios really do hit the cache.
func BenchTopology(links int, seed uint64) ([]byte, error) {
	cfg := network.Figure1Config()
	cfg.N = links
	net, err := network.Random(cfg, rng.New(seed))
	if err != nil {
		return nil, fmt.Errorf("server: bench topology: %w", err)
	}
	var buf bytes.Buffer
	if err := netio.Save(&buf, net); err != nil {
		return nil, fmt.Errorf("server: bench topology: %w", err)
	}
	return buf.Bytes(), nil
}

// BenchEstimateRequest wraps a BenchTopology payload into a complete
// /v1/estimate request body with the given Monte-Carlo settings.
func BenchEstimateRequest(topology []byte, samples int, seed uint64) ([]byte, error) {
	body, err := json.Marshal(estimateRequest{
		computeRequest: computeRequest{Network: json.RawMessage(topology)},
		Samples:        samples,
		Seed:           seed,
	})
	if err != nil {
		return nil, fmt.Errorf("server: bench estimate request: %w", err)
	}
	return body, nil
}

// BenchEstimateRefRequest builds a /v1/estimate request body that references
// a session topology by ref instead of inlining it.
func BenchEstimateRefRequest(ref string, samples int, seed uint64) ([]byte, error) {
	body, err := json.Marshal(estimateRequest{
		computeRequest: computeRequest{TopologyRef: ref},
		Samples:        samples,
		Seed:           seed,
	})
	if err != nil {
		return nil, fmt.Errorf("server: bench estimate ref request: %w", err)
	}
	return body, nil
}

// BenchBatchBody builds an NDJSON /v1/estimate/batch body of lines estimate
// requests against the session topology ref. Seeds run 1..lines so each line
// is a distinct computation (distinct cache keys) on the first pass and a
// cache hit on every later pass.
func BenchBatchBody(ref string, samples, lines int) ([]byte, error) {
	var buf bytes.Buffer
	for i := 0; i < lines; i++ {
		line, err := BenchEstimateRefRequest(ref, samples, uint64(i+1))
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// BenchShardRequest builds a small deterministic /v1/shard request body:
// one replication of a tiny Figure-1 instance. The same seed always yields
// byte-identical response bytes, which is what the cluster-trace-overhead
// scenario leans on to prove tracing never touches the payload.
func BenchShardRequest(seed uint64) ([]byte, error) {
	body, err := json.Marshal(ShardRequest{
		Experiment: sim.ExperimentFigure1,
		Lo:         0, Hi: 1,
		Figure1: &Figure1ShardConfig{
			Networks:      4,
			Links:         30,
			TransmitSeeds: 2,
			FadingSeeds:   2,
			Points:        3,
			Seed:          seed,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("server: bench shard request: %w", err)
	}
	return body, nil
}
