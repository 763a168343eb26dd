GO ?= go

.PHONY: all build test verify perfbench-build fmt-check race vet store-parity bench bench-json bench-smoke bench-selfcheck bench-pairs serve-smoke chaos-smoke compress-smoke cluster-smoke store-smoke replication-smoke fuzz fuzz-smoke apidiff clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Differential + adversarial gates on the durable report store: a
# store-backed server must render verdicts byte-identical to the
# in-memory one (corpus + random seeds), reports must survive a server
# restart, and a single flipped byte anywhere in the log must be
# detected and refused, never served.
store-parity:
	$(GO) test -run 'TestStore|TestTenant|TestLog|TestGatewayEdgeAuth' ./internal/server ./internal/store ./internal/cluster

# Mirrors the CI test job step for step (.github/workflows/ci.yml):
# gofmt gate, vet, build, the full suite, the full suite under the Go
# race detector, and the durable store's differential/tamper gates. It adds one step CI runs in its
# bench-selfcheck job instead: perfbench-build compiles and vets the
# nested perfbench module, which `go build ./...` skips, so an API
# change that breaks the benchmark fails here too.
verify: fmt-check vet build perfbench-build test race store-parity

perfbench-build:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# Detector hot-path benchmarks: storage backends (the default paged
# store "openaddr" and the reference "map") × per-event replay into a
# fresh detector (replay/) and into a warm one (steady/), on the
# pipeline and spawn-tree workloads. The steady openaddr rows are the
# allocation-free monitor hot path.
bench:
	$(GO) test -run=NONE -bench BenchmarkDetector -benchmem .

# Regenerate BENCH_race2d.json's replay sections: the full detector ×
# workload matrix, spread across GOMAXPROCS replay workers, and the E13
# ingestion cells. The E17 "compress" section stays as it is; `-e 17`
# regenerates it.
bench-json:
	$(GO) run ./cmd/bench2d -e bench -json BENCH_race2d.json

# Mirrors the CI bench-smoke job: reduced sweeps, no JSON artifact,
# failing on verdict disagreement, accounting violations, steady-state
# allocations in the 2D hot path, or the e17 bandwidth gate (compressed
# pipeline wire bytes/event over budget). The first line's -checkallocs
# holds the serial 2D replay to zero steady-state allocations. `-e all`
# runs the E1-E10, E13 and E17 tables; the service is measured by
# perfbench (bench-selfcheck), not by bench2d.
bench-smoke:
	$(GO) run ./cmd/bench2d -e bench -quick -parallel 2 -json '' -checkallocs
	$(GO) run ./cmd/bench2d -e all -quick
	$(GO) run ./cmd/bench2d -e 17 -quick -json ''

# Mirrors the CI bench-selfcheck job: builds the nested perfbench
# module (which `go build ./...` never compiles) and runs every
# workload briefly, traced and untraced, failing on any verdict or
# accounting error.
bench-selfcheck:
	bash perfbench/run.sh --selfcheck

# Paired perfbench runs behind a performance claim: REV's committed
# files against the working tree, N runs per side of WORKLOAD,
# alternating which side runs first; prints each end-to-end metric's
# median and IQR per side (scripts/bench_pairs.sh). About
# 2 x N x (20 s + set-up) of wall time.
REV ?= HEAD
N ?= 5
WORKLOAD ?= stream
bench-pairs:
	./scripts/bench_pairs.sh $(REV) $(N) $(WORKLOAD)

# Mirrors the CI serve-smoke job: build raced and race2d under the Go
# race detector, stream the corpus through a real server, assert remote
# output byte-identical to local, probe /healthz and /metrics, and drain
# a mid-stream SIGTERM gracefully.
serve-smoke:
	./scripts/serve_smoke.sh

# Mirrors the CI chaos-smoke job: raced and race2d built under the Go
# race detector, corpus parity through a deliberately faulty transport
# (raced -chaos), a mid-stream SIGKILL + restart that the client must
# ride out to a byte-identical verdict, and a replication follower
# outage the primary must absorb in degraded mode with the restarted
# follower catching up.
chaos-smoke:
	./scripts/chaos_smoke.sh

# Mirrors the CI compress-smoke job: byte-identical local/remote
# verdicts over compressed blocks, /metrics proof that blocks carried
# every event byte and saved bytes, and chaos parity with compressed
# blocks on a faulty transport.
compress-smoke:
	./scripts/compress_smoke.sh

# Mirrors the CI cluster-smoke job: three raced backends and one
# racedctl gateway (all -race), corpus parity through the gateway with
# the sessions spread over the fleet, then a mid-stream SIGKILL of the
# backend carrying a live session — the client must finish with a
# byte-identical verdict and /metrics must prove the re-route.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Mirrors the CI store-smoke job: a store-backed raced (with tenant
# auth) through the real binaries — durable fetch across SIGKILL,
# terminal refusal of bad credentials, raced_store_* metrics, and a
# flipped byte in the log detected with pre-damage reports still
# serving.
store-smoke:
	./scripts/store_smoke.sh

# Mirrors the CI replication-smoke job: a primary raced replicating to
# two followers through the real binaries (-race) — the persisted
# verdict survives a primary SIGKILL and fetches back byte-identically
# from a follower and through racedctl, plus live tenant-key rotation
# via PUT /admin/tenants and via SIGHUP of -tenant-keys-file.
replication-smoke:
	./scripts/replication_smoke.sh

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/prog
	$(GO) test -fuzz=FuzzDetectVsOracle -fuzztime=30s ./internal/prog
	$(GO) test -fuzz=FuzzDecodeTrace -fuzztime=30s ./internal/fj
	$(GO) test -fuzz=FuzzDecodeEventsBytes -fuzztime=30s ./internal/fj
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzDecodeBlock -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzBlockEncode -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzResume -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzReplFrames -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=30s ./internal/store
	$(GO) test -fuzz=FuzzLocTable -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzReportJSON -fuzztime=30s .

# Mirrors the CI fuzz-smoke job: seed corpora, then a short fuzz budget
# per target.
fuzz-smoke:
	$(GO) test -run 'Fuzz' . ./internal/prog ./internal/fj ./internal/wire ./internal/store ./internal/core
	$(MAKE) fuzz

# Diff the exported API of the root package and the client package
# against the previous commit (golang.org/x/exp/cmd/apidiff; installed
# on demand). Incompatible changes are reported but do not fail the
# build — this repo is pre-1.0 and deliberately evolving its API; the
# diff is for reviewers.
apidiff:
	@command -v apidiff >/dev/null 2>&1 || $(GO) install golang.org/x/exp/cmd/apidiff@latest
	@tmp=$$(mktemp -d) && trap 'git worktree remove --force '$$tmp'; rm -rf '$$tmp'' EXIT && \
		git worktree add --detach $$tmp HEAD~1 >/dev/null 2>&1 && \
		: >/tmp/apidiff.out && \
		for pkg in . ./client; do \
			(cd $$tmp && apidiff -w /tmp/apidiff.base $$pkg) && \
			apidiff -incompatible /tmp/apidiff.base $$pkg | sed "s|^|$$pkg: |" | tee -a /tmp/apidiff.out; \
		done; \
		if [ -s /tmp/apidiff.out ]; then echo "apidiff: incompatible changes above (informational)"; fi

clean:
	$(GO) clean ./...
