# Development gate for the XLINK reproduction. `make check` is the full
# pre-commit pipeline; individual targets are broken out for iteration.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build vet mutate reach test debugtest race fuzz chaos trace quick-golden bench check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The audit of the gates: ~50 small mutations of the real tree, each run
# through the gates in cost order until one catches it. Prints the table of
# DESIGN.md §7; about 20 minutes, not part of `make check`.
mutate:
	bash scripts/mutate.sh

# The reachability audit: every cmd/, examples/ and benchmark binary built
# with coverage and run once; prints the non-test functions no run entered
# (String methods aside). DESIGN.md §3 lists the ones that may appear and
# why; about a minute, not part of `make check`.
reach:
	bash scripts/reach.sh

test:
	$(GO) test ./...

# Same suite with runtime invariant assertions compiled in.
debugtest:
	$(GO) test -tags xlinkdebug ./...

race:
	$(GO) test -race ./...

# Short fuzz smoke on each wire-format target and on the short-header open
# (committed corpora under internal/wire/testdata/fuzz/ and
# internal/transport/testdata/fuzz/ run as regression inputs in plain
# `go test`).
fuzz:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzParseVarint -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzParseHeader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzOpenShort -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzParseFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzParseTransportParams -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzParseTrace -fuzztime $(FUZZTIME)

# Chaos suite: the scripted fault-injection corpus plus the connection
# lifecycle tests, with runtime assertions and the race detector on.
# See DESIGN.md ("Failure handling").
chaos:
	$(GO) test -race -tags xlinkdebug -count=1 ./internal/chaos/ \
		-run 'TestChaos'
	$(GO) test -race -tags xlinkdebug -count=1 ./internal/transport/ \
		-run 'TestHandshakeTimeoutTerminal|TestIdleTimeoutTerminal|TestCloseLifecycleStates|TestPTOGiveUpAbandonsDeadPath|TestPeerAbandonClosesPath|TestEvacuatedPathLateAcksHarmless|TestSecondaryPathDelay|TestCloseLeavesNoSecondaryTimer'

# Replay one chaos scenario with the qlog-style tracer attached and print
# the summary views (per-path timelines, Alg. 1 decision table,
# loss/rebuffer correlation). `go run ./cmd/xlinkqlog -list` enumerates
# scenarios; see DESIGN.md §9.
SCENARIO ?= interface-death
trace:
	$(GO) run ./cmd/xlinkqlog -run $(SCENARIO) -summary

# Re-record the quick experiment output that check.sh diffs every run
# against. Only for a change that moves an output on purpose.
quick-golden:
	$(GO) run ./cmd/xlink-bench -scale quick -seed 20210823 > cmd/xlink-bench/testdata/quick.txt

# Run the repo's benchmark (BENCHMARK.json): four end-to-end workloads with
# gated set-up, allocation and retained-heap metrics plus the per-layer
# cost budget. See benchmark/README.md and DESIGN.md §11.
bench:
	bash benchmark/run.sh

check:
	./scripts/check.sh
