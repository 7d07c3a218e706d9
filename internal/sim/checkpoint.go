package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"

	"rayfade/internal/faults"
	"rayfade/internal/fsio"
	"rayfade/internal/rng"
)

// checkpointSchema versions the on-disk checkpoint format. Bump on any
// incompatible change; Open refuses files from other schemas.
const checkpointSchema = 1

// ErrCheckpointMismatch reports a checkpoint file that is internally valid
// but belongs to a different run (experiment, config, or replication count
// differs). Resuming from it would splice results from incompatible RNG
// streams, so it is always an error, never a silent restart.
var ErrCheckpointMismatch = errors.New("sim: checkpoint does not match this run")

// ErrCheckpointCorrupt reports a checkpoint file whose checksum or schema
// failed validation. Because every flush is write-temp+fsync+rename, this
// indicates external damage, not a crash mid-write.
var ErrCheckpointCorrupt = errors.New("sim: checkpoint file is corrupt")

// checkpointBody is the checksummed payload of a checkpoint file.
type checkpointBody struct {
	Schema       int                        `json:"schema"`
	Experiment   string                     `json:"experiment"`
	ConfigSHA256 string                     `json:"config_sha256"`
	Reps         int                        `json:"reps"`
	Results      map[string]json.RawMessage `json:"results"` // key: decimal rep index
}

// checkpointFile is the full on-disk document: the body plus a SHA-256 of
// the body's exact JSON bytes. Readers re-hash Body (kept as RawMessage, so
// byte-for-byte what was written) before trusting anything inside it. The
// same envelope seals shard documents (see shardio.go), so one pair of
// helpers covers both formats.
type checkpointFile struct {
	Body   json.RawMessage `json:"body"`
	SHA256 string          `json:"sha256"`
}

// sealDocument marshals body and wraps it in the checksummed envelope.
func sealDocument(body any) ([]byte, error) {
	bodyJSON, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bodyJSON)
	return json.Marshal(checkpointFile{Body: bodyJSON, SHA256: hex.EncodeToString(sum[:])})
}

// openDocument unwraps a checksummed envelope, verifying the SHA-256 over
// the body's exact bytes before returning them. Callers wrap the error with
// their format's corruption sentinel.
func openDocument(raw []byte) (json.RawMessage, error) {
	var file checkpointFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(file.Body)
	if hex.EncodeToString(sum[:]) != file.SHA256 {
		return nil, errors.New("body checksum mismatch")
	}
	return file.Body, nil
}

// Checkpoint persists completed replication results so an interrupted run
// can resume without recomputing them. Every flush rewrites the whole file
// atomically (write-temp + fsync + rename): a crash at any instant leaves
// either the previous complete checkpoint or the new one, never a torn
// file.
//
// The file is bound to its run by the experiment name, a SHA-256 of the
// determinism-relevant config, and the replication count; Open fails on any
// mismatch. Because the runner splits one RNG stream per replication index
// up front, "resume" is simply "skip the indices already in the file" — the
// remaining replications see exactly the streams they would have seen in an
// uninterrupted run.
type Checkpoint struct {
	path       string
	experiment string
	configSHA  string
	reps       int
	every      int

	mu       sync.Mutex
	results  map[int]json.RawMessage
	restored int // replications loaded from disk at Open
	pending  int // completions recorded since the last flush
}

// ConfigHash returns the hex SHA-256 of the JSON encoding of config, the
// identity key stored in checkpoint files. Pass a struct containing only
// the fields that determine the run's output (seeds, sizes, grids — not
// worker counts or file paths).
func ConfigHash(config any) (string, error) {
	blob, err := json.Marshal(config)
	if err != nil {
		return "", fmt.Errorf("sim: hash checkpoint config: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// OpenCheckpoint opens or creates the checkpoint at path for a run of the
// named experiment with the given identity config and replication count.
// every is the flush interval in completed replications (≤1 flushes after
// every completion). If the file exists it is validated (checksum, schema,
// experiment, config hash, reps) and its completed replications become
// available for resume; if it does not exist an empty checkpoint is
// returned and nothing is written until the first flush.
func OpenCheckpoint(path, experiment string, config any, reps, every int) (*Checkpoint, error) {
	if reps < 0 {
		return nil, fmt.Errorf("sim: checkpoint with negative reps %d", reps)
	}
	if every < 1 {
		every = 1
	}
	sha, err := ConfigHash(config)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		path:       path,
		experiment: experiment,
		configSHA:  sha,
		reps:       reps,
		every:      every,
		results:    make(map[int]json.RawMessage),
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ck, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sim: read checkpoint %s: %w", path, err)
	}
	bodyJSON, err := openDocument(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, path, err)
	}
	var body checkpointBody
	if err := json.Unmarshal(bodyJSON, &body); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, path, err)
	}
	if body.Schema != checkpointSchema {
		return nil, fmt.Errorf("%w: %s: schema %d, want %d", ErrCheckpointCorrupt, path, body.Schema, checkpointSchema)
	}
	if body.Experiment != experiment {
		return nil, fmt.Errorf("%w: %s: experiment %q, want %q", ErrCheckpointMismatch, path, body.Experiment, experiment)
	}
	if body.ConfigSHA256 != sha {
		return nil, fmt.Errorf("%w: %s: config hash %.12s…, want %.12s… (parameters changed?)",
			ErrCheckpointMismatch, path, body.ConfigSHA256, sha)
	}
	if body.Reps != reps {
		return nil, fmt.Errorf("%w: %s: %d replications, want %d", ErrCheckpointMismatch, path, body.Reps, reps)
	}
	for key, data := range body.Results {
		rep, err := strconv.Atoi(key)
		if err != nil || rep < 0 || rep >= reps {
			return nil, fmt.Errorf("%w: %s: bad replication key %q", ErrCheckpointCorrupt, path, key)
		}
		ck.results[rep] = data
	}
	ck.restored = len(ck.results)
	return ck, nil
}

// Restored returns how many replications were loaded from disk at Open —
// the amount of work a resumed run skips. 0 for a fresh checkpoint.
func (ck *Checkpoint) Restored() int { return ck.restored }

// Done returns how many replications the checkpoint currently holds.
func (ck *Checkpoint) Done() int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return len(ck.results)
}

// lookup returns the stored result for a replication, if present.
func (ck *Checkpoint) lookup(rep int) (json.RawMessage, bool) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	data, ok := ck.results[rep]
	return data, ok
}

// record stores a completed replication and flushes to disk when the flush
// interval is reached. A failed flush is returned but the result stays
// recorded in memory — a later flush retries it.
func (ck *Checkpoint) record(rep int, data json.RawMessage) error {
	ck.mu.Lock()
	ck.results[rep] = data
	ck.pending++
	due := ck.pending >= ck.every
	ck.mu.Unlock()
	if !due {
		return nil
	}
	return ck.Flush()
}

// Flush atomically rewrites the checkpoint file with everything recorded so
// far. Safe to call at any time, including after errors and cancellation —
// flushing partial progress is the entire point.
func (ck *Checkpoint) Flush() error {
	if err := faults.Inject(faults.SiteCheckpoint); err != nil {
		return err
	}
	ck.mu.Lock()
	body := checkpointBody{
		Schema:       checkpointSchema,
		Experiment:   ck.experiment,
		ConfigSHA256: ck.configSHA,
		Reps:         ck.reps,
		Results:      make(map[string]json.RawMessage, len(ck.results)),
	}
	for rep, data := range ck.results {
		body.Results[strconv.Itoa(rep)] = data
	}
	ck.pending = 0
	ck.mu.Unlock()

	doc, err := sealDocument(body)
	if err != nil {
		return fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	return fsio.WriteFileAtomic(ck.path, doc, 0o644)
}

// ParallelCheckpointCtx is ParallelCtx with crash-safe persistence: results
// already present in ck are decoded instead of recomputed, and every fresh
// completion is encoded into ck (flushed to disk per ck's interval, plus a
// final flush on return, complete or cancelled).
//
// Determinism is inherited from ParallelCtx unchanged: the RNG streams are
// split per replication index before any work starts, so recomputing only
// the missing indices yields bit-identical results to an uninterrupted run
// — provided encode/decode round-trip T exactly (JSON does for float64).
// A nil ck degrades to plain ParallelCtx.
func ParallelCheckpointCtx[T any](ctx context.Context, reps, workers int, base *rng.Source, ck *Checkpoint,
	encode func(T) ([]byte, error), decode func([]byte) (T, error),
	fn func(rep int, src *rng.Source) T) ([]T, error) {
	if ck == nil {
		return ParallelCtx(ctx, reps, workers, base, fn)
	}
	if ck.reps != reps {
		return nil, fmt.Errorf("sim: checkpoint opened for %d replications, run has %d", ck.reps, reps)
	}
	// Split every stream up front exactly as ParallelCtx would, then hand the
	// missing indices to a standard run. The wrapped fn first consults the
	// checkpoint; a hit decodes, a miss computes and records.
	var (
		flushMu  sync.Mutex
		flushErr error
	)
	results, err := ParallelCtx(ctx, reps, workers, base, func(rep int, src *rng.Source) T {
		if data, ok := ck.lookup(rep); ok {
			out, derr := decode(data)
			if derr != nil {
				panic(fmt.Sprintf("sim: decode checkpointed replication %d: %v", rep, derr))
			}
			return out
		}
		out := fn(rep, src)
		data, eerr := encode(out)
		if eerr != nil {
			panic(fmt.Sprintf("sim: encode replication %d for checkpoint: %v", rep, eerr))
		}
		if rerr := ck.record(rep, data); rerr != nil {
			// Keep computing — the in-memory results are still good and the
			// final flush below retries the write — but surface the failure.
			flushMu.Lock()
			if flushErr == nil {
				flushErr = rerr
			}
			flushMu.Unlock()
		}
		return out
	})
	if ferr := ck.Flush(); ferr != nil {
		flushMu.Lock()
		if flushErr == nil {
			flushErr = ferr
		}
		flushMu.Unlock()
	}
	if err != nil {
		return results, err
	}
	flushMu.Lock()
	defer flushMu.Unlock()
	return results, flushErr
}
