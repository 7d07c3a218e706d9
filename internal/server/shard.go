package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"rayfade/internal/sim"
	"rayfade/internal/stats"
)

// POST /v1/shard computes replications [lo, hi) of a Monte-Carlo experiment
// and answers with the shard wire document (internal/sim shard format: the
// checksummed {body, sha256} envelope carrying the range header and the
// encoded per-replication results). A cluster coordinator fans a run's
// replication index space across several rayschedd workers through this
// endpoint and merges the documents into a checkpoint the single-node
// pipeline replays byte-identically.
//
// The request and config structs are exported so the coordinator side
// (internal/dist, cmd/raysched cluster) builds requests against the same
// schema the handler decodes — one definition, no wire drift.

// Figure1ShardConfig is the wire form of the Figure-1 experiment parameters:
// exactly the determinism-relevant knobs the CLI exposes. The probability
// grid travels as a point count (expanded to the standard Linspace grid on
// both sides) rather than raw floats, so no float formatting can perturb the
// run identity. Zero fields take the paper defaults, as everywhere else.
type Figure1ShardConfig struct {
	Networks      int    `json:"networks"`
	Links         int    `json:"links,omitempty"`
	TransmitSeeds int    `json:"transmit_seeds,omitempty"`
	FadingSeeds   int    `json:"fading_seeds,omitempty"`
	Points        int    `json:"points,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
	Topology      string `json:"topology,omitempty"`
}

// SimConfig expands the wire config into the sim-layer config, the same way
// the figure1 CLI does. Worker parallelism is pinned to 1: the daemon's pool
// already runs shards concurrently, and nested fan-out would oversubscribe
// the machine.
func (c Figure1ShardConfig) SimConfig() sim.Figure1Config {
	cfg := sim.Figure1Config{
		Networks:      c.Networks,
		Links:         c.Links,
		TransmitSeeds: c.TransmitSeeds,
		FadingSeeds:   c.FadingSeeds,
		Seed:          c.Seed,
		Topology:      c.Topology,
		Workers:       1,
	}
	if c.Points > 0 {
		cfg.Probs = stats.Linspace(0.05, 1.0, c.Points)
	}
	return cfg
}

// ShardRequest is the POST /v1/shard body.
type ShardRequest struct {
	// Experiment names the experiment; only sim.ExperimentFigure1 exists.
	Experiment string `json:"experiment"`
	// Lo, Hi bound the replication range [lo, hi) this worker computes.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Figure1 carries the experiment parameters when Experiment is "figure1".
	Figure1   *Figure1ShardConfig `json:"figure1,omitempty"`
	TimeoutMS int64               `json:"timeout_ms,omitempty"`
}

// shardParams is the defaults-applied cache-key payload of /v1/shard. The
// config hash folds in every determinism-relevant parameter, so (hash, range)
// identifies the result bytes exactly.
type shardParams struct {
	Experiment string `json:"experiment"`
	ConfigSHA  string `json:"config_sha256"`
	Lo         int    `json:"lo"`
	Hi         int    `json:"hi"`
}

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Experiment != sim.ExperimentFigure1 {
		writeError(w, badRequest("unknown experiment %q (want %q)", req.Experiment, sim.ExperimentFigure1))
		return
	}
	if req.Figure1 == nil {
		writeError(w, badRequest("missing \"figure1\" experiment config"))
		return
	}
	if req.Figure1.Networks < 1 {
		writeError(w, badRequest("networks %d must be at least 1", req.Figure1.Networks))
		return
	}
	if req.Figure1.Points < 0 || req.Figure1.Points == 1 {
		writeError(w, badRequest("points %d must be 0 (default grid) or at least 2", req.Figure1.Points))
		return
	}
	if s.cfg.MaxLinks > 0 && req.Figure1.Links > s.cfg.MaxLinks {
		writeError(w, &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("links %d, limit is %d", req.Figure1.Links, s.cfg.MaxLinks)})
		return
	}
	if req.Lo < 0 || req.Hi > req.Figure1.Networks || req.Lo >= req.Hi {
		writeError(w, badRequest("shard range [%d,%d) outside [0,%d)", req.Lo, req.Hi, req.Figure1.Networks))
		return
	}
	cfg := req.Figure1.SimConfig()
	sha, err := sim.Figure1ConfigSHA(cfg)
	if err != nil {
		writeError(w, err)
		return
	}
	// The range header rides on every response (including cache hits), so a
	// coordinator can sanity-check a reply against the shard it asked for
	// before even decoding the document.
	w.Header().Set("X-Shard-Range", fmt.Sprintf("%d-%d", req.Lo, req.Hi))
	p := shardParams{Experiment: req.Experiment, ConfigSHA: sha, Lo: req.Lo, Hi: req.Hi}
	compute := func(ctx context.Context) (any, error) {
		s.shardsInflight.Add(1)
		defer s.shardsInflight.Add(-1)
		sh, err := sim.RunFigure1ShardCtx(ctx, cfg, req.Lo, req.Hi)
		if err != nil {
			return nil, err
		}
		doc, err := sh.Encode()
		if err != nil {
			return nil, err
		}
		s.shardsCompleted.Add(1)
		// Already-marshaled JSON: serve's json.Marshal passes it through
		// verbatim, so the wire bytes are exactly the sealed document.
		return json.RawMessage(doc), nil
	}
	s.serve(w, r, "/v1/shard", call{params: p, timeoutMS: req.TimeoutMS, compute: compute})
}
