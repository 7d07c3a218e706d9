package sim

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"rayfade/internal/rng"
)

// TestParallelShardCtxMatchesFull: every shard of a partition must reproduce
// exactly the slice of the full run it covers, at any worker width — the
// property the distributed merge rests on.
func TestParallelShardCtxMatchesFull(t *testing.T) {
	const reps = 11
	fn := func(_ context.Context, rep int, src *rng.Source) float64 { return float64(rep) + src.Float64() }
	full, err := ParallelCtx(context.Background(), reps, 4, rng.New(9), fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range [][2]int{{0, 3}, {3, 7}, {7, 11}, {0, 11}, {5, 6}} {
		lo, hi := shard[0], shard[1]
		for _, workers := range []int{1, 3} {
			got, err := ParallelShardCtx(context.Background(), reps, lo, hi, workers, rng.New(9), fn)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != hi-lo {
				t.Fatalf("shard [%d,%d): %d results", lo, hi, len(got))
			}
			for i, v := range got {
				if v != full[lo+i] {
					t.Fatalf("shard [%d,%d) workers=%d: rep %d = %v, full run has %v",
						lo, hi, workers, lo+i, v, full[lo+i])
				}
			}
		}
	}
}

func TestParallelShardCtxRejectsBadRange(t *testing.T) {
	fn := func(_ context.Context, rep int, src *rng.Source) int { return rep }
	for _, bad := range [][2]int{{-1, 2}, {0, 6}, {3, 2}} {
		if _, err := ParallelShardCtx(context.Background(), 5, bad[0], bad[1], 1, rng.New(1), fn); err == nil {
			t.Errorf("range [%d,%d) of 5: want error", bad[0], bad[1])
		}
	}
	// An empty range is a valid degenerate shard, mirroring ParallelCtx with
	// zero replications.
	got, err := ParallelShardCtx(context.Background(), 5, 2, 2, 1, rng.New(1), fn)
	if err != nil || len(got) != 0 {
		t.Errorf("empty range [2,2): got %v, %v", got, err)
	}
}

// shardFigure1 is a Figure-1 config small enough for shard unit tests but
// with enough networks to cut into three shards.
func shardFigure1() Figure1Config {
	return Figure1Config{
		Networks: 5, Links: 12, TransmitSeeds: 2, FadingSeeds: 2,
		Probs: []float64{0.2, 0.6, 1.0}, Seed: 17, Workers: 2,
	}
}

// TestFigure1ShardsMergeByteIdentical is the end-to-end determinism
// argument in miniature: compute the run as three shards, merge them, write
// the merged checkpoint, replay through RunFigure1Ctx, and require the CSV
// to be byte-identical to the plain single-node run.
func TestFigure1ShardsMergeByteIdentical(t *testing.T) {
	cfg := shardFigure1()
	single, err := RunFigure1Ctx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteSeriesCSV(&want, "prob", single.Probs, single.CurveNames(), single.Curves); err != nil {
		t.Fatal(err)
	}

	var shards []*Shard
	for _, r := range [][2]int{{0, 2}, {2, 3}, {3, 5}} {
		sh, err := RunFigure1ShardCtx(context.Background(), cfg, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip through the wire format, as a coordinator would.
		doc, err := sh.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeShard(doc)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, back)
	}
	sha, err := Figure1ConfigSHA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeShards(ExperimentFigure1, sha, cfg.Networks, shards)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "merged.ckpt")
	if err := WriteMergedCheckpoint(path, ExperimentFigure1, sha, cfg.Networks, merged); err != nil {
		t.Fatal(err)
	}

	replay := cfg
	replay.Checkpoint = path
	res, err := RunFigure1Ctx(context.Background(), replay)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteSeriesCSV(&got, "prob", res.Probs, res.CurveNames(), res.Curves); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("sharded+merged CSV differs from single-node run:\n--- merged\n%s\n--- single\n%s", got.String(), want.String())
	}
}

func TestFigure1ShardRejectsBadRange(t *testing.T) {
	cfg := shardFigure1()
	for _, bad := range [][2]int{{-1, 2}, {0, 6}, {4, 3}, {2, 2}} {
		if _, err := RunFigure1ShardCtx(context.Background(), cfg, bad[0], bad[1]); err == nil {
			t.Errorf("range [%d,%d): want error", bad[0], bad[1])
		}
	}
}
