# Convenience targets for the rayfade reproduction.

GO ?= go
LABEL ?= local

.PHONY: all build vet test race bench bench-json bench-compare throughput lint golden golden-check trace-smoke chaos cluster cover figures results serve fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark run: writes BENCH_$(LABEL).json via the
# raybench harness (use LABEL=... to tag the run; add RAYBENCH_FLAGS=-quick
# for the smoke subset).
bench-json:
	$(GO) run ./cmd/raybench run -label $(LABEL) $(RAYBENCH_FLAGS)

# Compare a fresh quick run against the committed seed baseline
# (allocation metric: machine-independent, so it is meaningful anywhere).
bench-compare:
	$(GO) run ./cmd/raybench run -quick -label compare-tmp -out /tmp/BENCH_compare-tmp.json
	$(GO) run ./cmd/raybench compare -metric allocs -threshold 0.40 results/BENCH_seed.json /tmp/BENCH_compare-tmp.json

# Batched-path throughput gate (CI's throughput-smoke job): the NDJSON
# batch endpoint must serve at least 5x the per-request estimates/sec.
# Self-relative — both sides are measured here, moments apart — so the
# gate means the same thing on a laptop and in CI.
throughput:
	$(GO) run ./cmd/raybench throughput -min-ratio 5.0

# Formatting gate (CI's lint job also runs staticcheck + govulncheck,
# which need network to install; this target is the offline part).
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# Regenerate the golden determinism manifest (after an intentional change
# to any experiment's fixed-seed output).
golden:
	$(GO) run ./cmd/raybench golden -out results/golden.json

# Verify every sim experiment still reproduces its recorded fixed-seed
# hash; exits non-zero on drift. The -trace pass re-verifies with a
# process-wide tracer installed (instrumentation must not perturb outputs).
golden-check:
	$(GO) run ./cmd/raybench golden -check
	$(GO) run ./cmd/raybench golden -check -trace

# Capture and validate a Chrome trace of a small Figure-1 run (open the
# resulting JSON at https://ui.perfetto.dev).
trace-smoke:
	$(GO) run ./cmd/raysched figure1 -networks 3 -links 12 -txseeds 2 -fadeseeds 2 -points 4 -trace /tmp/fig1.trace.json > /dev/null
	$(GO) run ./cmd/raybench tracecheck -nested /tmp/fig1.trace.json

# Chaos smoke: the fault-injection and crash-recovery suites under the race
# detector (injector determinism, daemon survival under the fault matrix,
# kill/resume byte identity, mid-replication cancellation), then a checkpoint
# resume exercised through the real CLI with replication faults armed.
chaos:
	$(GO) test -race ./internal/faults/ ./internal/fsio/ ./internal/client/ \
		-run . -count 1
	$(GO) test -race ./internal/sim/ -run 'Checkpoint|Cancel' -count 1
	$(GO) test -race ./internal/server/ -run 'Fault|Shed|PoolClose' -count 1
	$(GO) test -race ./cmd/raysched/ -run 'SIGKILL' -count 1
	rm -f /tmp/chaos-fig1.ckpt
	$(GO) run ./cmd/raysched figure1 -networks 4 -links 16 -txseeds 2 -fadeseeds 2 -points 3 \
		-checkpoint /tmp/chaos-fig1.ckpt -faults "seed=1,sim.replication=delay:0.5:10ms" > /dev/null
	$(GO) run ./cmd/raysched figure1 -networks 4 -links 16 -txseeds 2 -fadeseeds 2 -points 3 \
		-checkpoint /tmp/chaos-fig1.ckpt > /dev/null
	rm -f /tmp/chaos-fig1.ckpt

# Distributed smoke: three local rayschedd workers, one SIGKILL'd mid-shard;
# the coordinator must reassign the lost shard and the merged CSV must be
# byte-identical to a single-node run (cmp, no tolerance).
cluster:
	bash scripts/cluster-smoke.sh

cover:
	$(GO) test -cover ./...

# Regenerate the paper's figures as SVG plus the data tables in results/.
figures: build
	mkdir -p results
	$(GO) run ./cmd/raysched figure1 -format svg > results/figure1.svg
	$(GO) run ./cmd/raysched figure2 -format svg > results/figure2.svg
	$(GO) run ./cmd/raysched figure1 -format md  > results/figure1.md
	$(GO) run ./cmd/raysched figure2             > results/figure2.md

# Regenerate every recorded experiment output (takes several minutes).
results: figures
	$(GO) run ./cmd/raysched figure1 -format csv > results/figure1.csv
	$(GO) run ./cmd/raysched figure2 -format csv > results/figure2.csv
	$(GO) run ./cmd/raysched optimum             > results/optimum.txt
	$(GO) run ./cmd/raysched reduction           > results/reduction.txt
	$(GO) run ./cmd/raysched fading              > results/fading.txt
	$(GO) run ./cmd/raysched topology            > results/topology.md
	$(GO) run ./cmd/raysched shannon             > results/shannon.md
	$(GO) run ./cmd/raysched latency -trials 3   > results/latency.txt
	$(GO) run ./cmd/raysched baseline            > results/baseline.txt

# Run the scheduling daemon on :8080.
serve: build
	$(GO) run ./cmd/rayschedd -addr :8080

# Fuzz the topology reader, the shared compute-request decode, the shard
# decoder and the trace header (the daemon's and the coordinator's
# hostile-input surface) and the Rayleigh counting kernels against their
# full-draw reference.
fuzz:
	$(GO) test ./internal/netio/ -fuzz FuzzReadNetwork -fuzztime 30s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzDecodeComputeRequest -fuzztime 30s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzEstimateBatch -fuzztime 30s
	$(GO) test ./internal/fading/ -run '^$$' -fuzz FuzzCountSuccessesMatchesReference -fuzztime 30s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzDecodeShard -fuzztime 30s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzParseTraceContext -fuzztime 30s

clean:
	$(GO) clean -testcache
