# B-IoT development targets. Pure stdlib: no tool dependencies beyond Go.

GO ?= go

# internal/node's tests that wait on time run inside a testing/synctest
# bubble, on a virtual clock, when the experiment is on (bubble_test.go);
# without it the same bodies run on real time (bubble_realtime_test.go),
# which is what the plain `go test ./...` does. Go 1.24 ships synctest
# behind this experiment. From Go 1.25 synctest needs none: this variable
# and the two files' build tags go, and inBubble's synctest.Run becomes
# synctest.Test.
SYNCTEST := GOEXPERIMENT=synctest

.PHONY: all build vet test test-short test-chaos test-scenarios test-scenarios-long test-flake test-shard race cover bench bench-pairs loc mem figures examples fuzz clean

all: build vet test

build:
	$(GO) build ./...

# go vet (internal/node also with the synctest experiment on, so the
# bubble's half of its tests compiles), then two gates of the source itself: gofmt must have nothing to
# rewrite, and every exported function, method, constant or variable in
# internal/ must have a reference somewhere in this module or bench/
# (scripts/unused-exports.sh, which also lists, without failing, the ones
# only tests reach, and fails on an option constructor, With*, that only
# tests call).
vet:
	$(GO) vet ./...
	$(SYNCTEST) $(GO) vet ./internal/node/
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; fi
	@scripts/unused-exports.sh

# The default test run is race-enabled: the submission pipeline is
# concurrent by design, so a non-race pass proves little. The bench
# smoke pins a tiny -benchtime so the tangle benchmark suite itself
# stays compiling and passing; the concurrent-reader benchmark runs
# under the race detector to exercise SelectTips readers against a
# live attacher. The store runs ten more rounds: its group committer is
# the one place every admission path meets, and its tests order
# goroutines by released fsyncs, which only repetition checks. So do the
# supervisor's tests, which order the watchdog, Stop and the probes by
# lifecycle transitions (a held build, a held drain, a failing restart),
# beside the compaction tests, whose one Compact call rewrites the journal
# while the committer flushes, and the split double spend (each half
# submitted at its own gateway), whose two gateways must pick one winner
# however gossip interleaves the halves, and the node's pull tests (orphan and
# evidence-gap repair, the pager), which race the repair worker's wake,
# its pulls and Close, and the fan-out's window tests (pair order,
# coalescing, stall accounting), whose sender hands batches to up to 32
# workers per peer: four times as many as at a window of 8, so more
# interleavings to sample. The allocation guards (txn's wire path, the ID a
# decode seeds and a device's build-sign-mine of a reading, node's relayed batch — journaled or not —
# and journal replay beyond each transaction's resident copy and its
# Submit of a pre-mined transaction, journaled or not, a journal
# compaction per record it rewrites, a catch-up sync over TCP per synced
# transaction, tangle's attach beyond its vertex, a PoW search (nothing),
# gossip's one-transaction exchange over TCP, rpc's bytes per reading, identity's
# batch kernel and its single Verify (nothing), core's credit query
# (nothing), a histogram's flat memory) and the byte guards (tangle's bytes per resident vertex, node's per
# relayed transaction, core's per credit record, identity's per expanded
# key) run without the race detector, whose own allocations they would
# otherwise count; so does
# the shard-scaling guard (four regions admit ≥ 0.8× four times one),
# which the detector's CPU cost would turn into a measure of the cores.
# bench/ is a module of its own, so `./...` above never reaches it: its
# vet and tests ride here.
test: vet
	$(SYNCTEST) $(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/store/
	$(SYNCTEST) $(GO) test -race -count=10 -run 'Supervisor|Compact' ./internal/node/
	$(SYNCTEST) $(GO) test -race -count=10 -run 'SplitDoubleSpend' ./internal/node/
	$(SYNCTEST) $(GO) test -race -count=10 -run 'Orphan|Repair|Pager|EvidenceGap' ./internal/node/
	$(SYNCTEST) $(GO) test -race -count=10 -run 'WindowedSender|BroadcastBatches|SendWindowStallAccounting' ./internal/node/
	$(GO) test -run XXX -bench BenchmarkTangle -benchtime 50x ./internal/tangle/
	$(GO) test -race -run XXX -bench BenchmarkTangleConcurrentSelectDuringAttach -benchtime 100x ./internal/tangle/
	$(GO) test -run XXX -bench BenchmarkGossip -benchtime 20x ./internal/gossip/
	$(GO) test -run 'TestWirePathAllocationBudget|TestDeviceBuildAllocationBudget|TestRelayBatchAllocationBudget|TestJournaledRelayBatchAllocationBudget|TestReplayAllocationBudget|TestSubmitAllocationBudget|TestJournaledSubmitAllocationBudget|TestExchangeAllocationBudget|TestCompactJournalAllocationBudget|TestCatchUpAllocationBudget|TestAttachAllocationBudget|TestSearchAllocatesNothing|TestSteadyStateZeroAlloc|TestDecodeSeedsTheID|TestPostReadingAllocationBudget|TestVerifyBatchAllocationBudget|TestVerifyAllocatesNothing|TestCreditOfAllocatesNothing|TestHistogramMemoryIsFlat|TestBytesPerAttachedVertex|TestResidentBytesPerRelayedTransaction|TestBytesPerCreditRecord|TestBytesPerExpandedKey|TestShardAdmissionScalesWithRegions' -count=1 ./internal/txn/ ./internal/rpc/ ./internal/identity/ ./internal/metrics/ ./internal/tangle/ ./internal/node/ ./internal/gossip/ ./internal/core/ ./internal/scenario/ ./internal/pow/
	$(GO) test -run XXX -bench BenchmarkPostReadingOverRPC -benchtime 200x ./internal/rpc/
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race -run 'TestResidentVerticesStayBounded' -count=1 ./internal/tangle/

# The fault-injection suite in one sweep: crash-point torture over the
# journal, the supervised multi-node chaos soak (kills, disk faults,
# network faults, partitions — zero admitted-transaction loss), and the
# supervisor lifecycle tests. A failing soak prints its seed; replay it
# with BIOT_CHAOS_SEED=<seed> make test-chaos.
test-chaos:
	$(GO) test -race -run 'TestCrashPointTorture|TestCrashDuringRecoveryTruncation' -count=1 ./internal/store/
	$(SYNCTEST) $(GO) test -race -run 'TestChaosSoak|TestSupervisor' -count=1 -v ./internal/node/
	$(GO) test -race -count=1 ./internal/chaos/
	$(GO) test -fuzz='^FuzzReplay$$' -fuzztime=15s ./internal/store/

# The scenario matrix at the 20-node CI tier (it also runs inside
# `make test` via the package test sweep). A failing cell prints its
# seed; replay it with BIOT_SCENARIO_SEED=<seed> make test-scenarios.
test-scenarios:
	$(GO) test -race -run 'TestScenarioMatrix$$|TestSpecByName' -count=1 -v ./internal/scenario/

# The flake sweep: EVERY scenario-matrix cell at 60 distinct seeds under
# the race detector, because a cell that is deterministic per seed can
# still lose a goroutine race one run in twenty. The revocation-storm
# cell (which used to fail ~8%/run under the live-registry relay gate;
# 60 seeds is >99% reproduction probability at that rate) must also
# finish every run with zero relay-path authorization rejects. With
# BIOT_FLAKE_RUNS unset the same test is the 5-seed revocation-storm
# smoke that rides inside the ordinary `make test` sweep.
test-flake:
	BIOT_FLAKE_RUNS=60 $(GO) test -race -run 'TestFlakeSweep$$' -count=1 -timeout 60m -v ./internal/scenario/

# The scenario matrix at the 100+-node tier (111 nodes per cell).
test-scenarios-long:
	BIOT_SCENARIO_LONG=1 $(GO) test -race -run TestScenarioMatrixLong -count=1 -timeout 30m -v ./internal/scenario/

# The sharded two-tier topology suite, race-enabled: the node-level
# two-shard convergence/leakage property, the multi-region roam
# scenario (device carries credit across regions, border gateway
# crash-reboots mid-run, zero durable loss), and the keyfile identity
# round trip; then, without the race detector, the scaling guard (four
# single-gateway regions on 5 ms-fsync disks admit ≥ 0.8× four times one).
# A failing scenario prints its seed; replay with
# BIOT_SCENARIO_SEED=<seed> make test-shard.
test-shard:
	$(GO) test -race -run 'TestShardedRegionsConvergeWithoutLeakage' -count=1 -v ./internal/node/
	$(GO) test -race -run 'TestMultiRegionRoam' -count=1 -v ./internal/scenario/
	$(GO) test -run 'TestShardAdmissionScalesWithRegions' -count=1 -v ./internal/scenario/
	$(GO) test -race -run 'TestKeyfileRoundTripsAcrossSupervisorRestart' -count=1 ./cmd/biot-node/

# Fast feedback loop: no race detector, skip the long soak/stress tests.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# One testing.B bench per paper figure + ablations (laptop-scale), plus
# the tangle and gossip hot-path suites. Performance claims rest on the
# end-to-end benchmark instead (bench/, BENCHMARK.json, make bench-pairs).
bench:
	$(GO) test -run XXX -bench . -benchmem .
	$(GO) test -run XXX -bench BenchmarkTangle -benchmem ./internal/tangle/
	$(GO) test -run XXX -bench BenchmarkGossip -benchmem ./internal/gossip/

# The paired-run protocol for a change that claims a gain on the
# end-to-end benchmark (bench/, BENCHMARK.json): BASE exported next to
# this checkout, ten alternating base/head pairs of
# `bash bench/run.sh --workload W --trace 0` on seeds 1..10 plus one
# pair on the held-out seed 20190707, then bench's own -compare.
# TRACE=1 adds one traced pair per workload and prints the per-layer rows
# of the journal, the fan-out path and the bulk readers side by side (see
# the script).
#   make bench-pairs BASE=HEAD~1 [WORKLOADS="relay-fanout full-path"] [OUT=dir] [TRACE=1]
bench-pairs:
	@test -n "$(BASE)" || { echo "usage: make bench-pairs BASE=<ref> [WORKLOADS=...]"; exit 2; }
	scripts/bench-pairs.sh $(BASE) $(WORKLOADS)

# Non-test Go lines per package (internal/*, cmd/*, and the root package
# as ".") and their total — the count a change that claims to simplify
# quotes before → after (CHANGES.md).
loc:
	@total=0; for d in internal/*/ cmd/*/ ./; do \
		n=$$(cat $$(ls $$d*.go | grep -v _test.go) | wc -l); total=$$((total + n)); \
		printf '%6d %s\n' "$$n" "$${d%/}"; \
	done; printf '%6d total\n' "$$total"

# RAM per resident transaction — the byte guards, verbose, reduced to
# their figures: bytes per attached vertex (the ledger alone), per relayed
# transaction (a whole journal-less node), per credit record (the credit
# ledger alone), per observed latency histogram (fixed, not per
# transaction) and per expanded key in identity's key table (per known
# signer, with the table's worst case) — and beside them what the two
# bulk edges, a relayed batch
# (on a journal-less and a journaling relay), a journal replay and a
# catch-up sync, allocate per transaction beyond the copy the ledger keeps,
# what an attach allocates beyond its vertex, what one Submit of
# a pre-mined transaction allocates, journaled or not, what a journal
# compaction allocates per record it rewrites, and what one
# one-transaction gossip exchange allocates on both ends of the link.
# A change that touches what a node keeps or allocates per
# transaction quotes them before → after (CHANGES.md).
mem:
	@out=$$($(GO) test -run 'TestBytesPerAttachedVertex|TestResidentBytesPerRelayedTransaction|TestBytesPerCreditRecord|TestBytesPerHistogram|TestBytesPerExpandedKey|TestRelayBatchAllocationBudget|TestJournaledRelayBatchAllocationBudget|TestReplayAllocationBudget|TestSubmitAllocationBudget|TestJournaledSubmitAllocationBudget|TestCompactJournalAllocationBudget|TestExchangeAllocationBudget|TestCatchUpAllocationBudget|TestAttachAllocationBudget' -count=1 -v ./internal/tangle/ ./internal/node/ ./internal/core/ ./internal/metrics/ ./internal/gossip/ ./internal/identity/); status=$$?; \
		echo "$$out" | grep -E 'bytes retained|beyond its resident copy|beyond its vertex|per submitted transaction|per compacted record|per one-transaction exchange|^(FAIL|ok|---)' | sed -E 's/^ +[a-z_]+\.go:[0-9]+: //'; exit $$status

# Regenerate every paper figure with full (Pi-emulated) parameters.
figures:
	$(GO) run ./cmd/biot-bench -fig all

# Run every example scenario end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/smartfactory
	$(GO) run ./examples/datasharing
	$(GO) run ./examples/attackdefense
	$(GO) run ./examples/resilience

# Short fuzz pass over the wire-format decoders (the view over canonical
# bytes against Decode among them), the journal replay (its view-yielding
# path against OpenFS) and the batch verifier.
fuzz:
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=30s ./internal/txn/
	$(GO) test -fuzz='^FuzzDecodeTransfer$$' -fuzztime=15s ./internal/txn/
	$(GO) test -fuzz='^FuzzViewAgreesWithDecode$$' -fuzztime=30s ./internal/txn/
	$(GO) test -fuzz='^FuzzDecrypt$$' -fuzztime=30s ./internal/dataauth/
	$(GO) test -fuzz='^FuzzOpenEnvelope$$' -fuzztime=15s ./internal/dataauth/
	$(GO) test -fuzz='^FuzzDecodeMessage$$' -fuzztime=30s ./internal/gossip/
	$(GO) test -fuzz='^FuzzReadFrame$$' -fuzztime=15s ./internal/gossip/
	$(GO) test -fuzz='^FuzzReplay$$' -fuzztime=15s ./internal/store/
	$(GO) test -fuzz='^FuzzVerifyBatchAgreesWithVerify$$' -fuzztime=30s ./internal/identity/

clean:
	rm -f cover.out test_output.txt bench_output.txt
