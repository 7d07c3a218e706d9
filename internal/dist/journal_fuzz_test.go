package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"rayfade/internal/sim"
)

// FuzzJournalLoad feeds arbitrary bytes to the journal loader as one to three
// .shard files, split at NUL bytes, next to one valid shard of the job and
// one valid shard of a foreign run. A part that starts with 's' is the rest
// sealed into a checksummed envelope, so mutations reach the shard body
// behind the checksum. The loader must not panic; what it returns must be
// sorted by Lo, non-overlapping and of the job's identity; and the valid
// shard must be kept whenever no other shard of the job starting at or
// before it overlaps it.
func FuzzJournalLoad(f *testing.F) {
	job := Job{Experiment: sim.ExperimentFigure1, ConfigSHA: "fuzz-config", Reps: 8}
	valid := journalShard(job.ConfigSHA, job.Reps, 4, 6)
	foreign := journalShard("other-config", job.Reps, 0, 2)
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	// Written with os.WriteFile rather than journal.record: the fsync of the
	// atomic write would dominate every execution.
	fixed := map[string][]byte{}
	for name, sh := range map[string]*sim.Shard{"valid": valid, "foreign": foreign} {
		doc, err := sh.Encode()
		if err != nil {
			f.Fatal(err)
		}
		fixed[name+journalExt] = doc
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		j := &journal{dir: t.TempDir()}
		write := func(name string, doc []byte) {
			if err := os.WriteFile(filepath.Join(j.dir, name), doc, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for name, doc := range fixed {
			write(name, doc)
		}
		overlapsValid := false
		for k, part := range bytes.SplitN(data, []byte{0}, 3) {
			if len(part) > 0 && part[0] == 's' {
				part = sealShardBody(part[1:])
			}
			write(fmt.Sprintf("fuzz-%d%s", k, journalExt), part)
			sh, err := sim.DecodeShard(part)
			if err == nil && sh.Experiment == job.Experiment && sh.ConfigSHA == job.ConfigSHA &&
				sh.Reps == job.Reps && sh.Lo <= valid.Lo && sh.Hi > valid.Lo {
				overlapsValid = true
			}
		}

		got := j.load(job, log)
		keptValid := false
		for k, sh := range got {
			if sh.Experiment != job.Experiment || sh.ConfigSHA != job.ConfigSHA || sh.Reps != job.Reps {
				t.Fatalf("shard %d [%d,%d) has identity (%q, %q, %d), want the job's",
					k, sh.Lo, sh.Hi, sh.Experiment, sh.ConfigSHA, sh.Reps)
			}
			if k > 0 && sh.Lo < got[k-1].Hi {
				t.Fatalf("shard %d [%d,%d) overlaps or precedes shard %d [%d,%d)",
					k, sh.Lo, sh.Hi, k-1, got[k-1].Lo, got[k-1].Hi)
			}
			if sh.Lo == valid.Lo && sh.Hi == valid.Hi {
				keptValid = true
			}
		}
		if !overlapsValid && !keptValid {
			t.Fatalf("valid shard [%d,%d) dropped with no earlier overlap; loaded %d shards",
				valid.Lo, valid.Hi, len(got))
		}
	})
}

// journalShard is a well-formed shard of [lo, hi) for the Figure-1 run with
// the given identity.
func journalShard(configSHA string, reps, lo, hi int) *sim.Shard {
	sh := &sim.Shard{
		Experiment: sim.ExperimentFigure1, ConfigSHA: configSHA, Reps: reps, Lo: lo, Hi: hi,
		Results: map[int]json.RawMessage{},
	}
	for rep := lo; rep < hi; rep++ {
		sh.Results[rep] = json.RawMessage(`{}`)
	}
	return sh
}

// sealShardBody wraps body in the shard document's checksummed envelope.
// Bytes that are not JSON come back unchanged.
func sealShardBody(body []byte) []byte {
	var compact bytes.Buffer
	if json.Compact(&compact, body) != nil {
		return body
	}
	sum := sha256.Sum256(compact.Bytes())
	doc, err := json.Marshal(struct {
		Body   json.RawMessage `json:"body"`
		SHA256 string          `json:"sha256"`
	}{compact.Bytes(), hex.EncodeToString(sum[:])})
	if err != nil {
		return body
	}
	return doc
}
