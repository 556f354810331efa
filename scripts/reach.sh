#!/usr/bin/env bash
# Reachability audit: which non-test functions does no production entry point
# run? Builds every cmd/, examples/ and benchmark binary with coverage of all
# packages, runs each one the way an operator would (quick experiment scale),
# and prints every function that no run entered, except String methods.
# DESIGN.md §3 holds the table of the functions this may print and why each
# stays; anything else it prints has no caller but the tests.
#
# Run from the repository root: bash scripts/reach.sh  (or `make reach`).
# About a minute on 2 vCPUs. Not part of scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
server_pid=""
cleanup() {
	if [ -n "$server_pid" ]; then kill -INT "$server_pid" 2>/dev/null || true; fi
	rm -rf "$work"
}
trap cleanup EXIT

bin="$work/bin"
mkdir -p "$bin" "$work/cov" "$work/out"
for pkg in ./cmd/* ./examples/* ./benchmark; do
	go build -cover -coverpkg=./... -o "$bin/$(basename "$pkg")" "$pkg"
done
export GOCOVERDIR="$work/cov"
out="$work/out"

echo "==> xlink-bench -scale quick [${SECONDS}s]" >&2
"$bin/xlink-bench" -scale quick >/dev/null

echo "==> examples [${SECONDS}s]" >&2
for ex in loadbalancer mobility quickstart shortvideo; do
	"$bin/$ex" >/dev/null
done

echo "==> xlinkqlog [${SECONDS}s]" >&2
"$bin/xlinkqlog" -list >/dev/null
traces=()
for sc in $("$bin/xlinkqlog" -list | awk '{print $1}'); do
	"$bin/xlinkqlog" -run "$sc" -o "$out/$sc.ndjson" 2>/dev/null
	"$bin/xlinkqlog" -run "$sc" -summary -metrics >/dev/null
	"$bin/xlinkqlog" "$out/$sc.ndjson" >/dev/null
	traces+=("$out/$sc.ndjson")
done
"$bin/xlinkqlog" -run no-such-scenario >/dev/null 2>&1 || true
"$bin/xlinkqlog" -fleet -metrics "${traces[@]}" >/dev/null

echo "==> tracegen [${SECONDS}s]" >&2
for kind in walking-wifi walking-lte subway-cell subway-wifi hsr-cell hsr-wifi constant; do
	"$bin/tracegen" -kind "$kind" -seconds 10 >/dev/null
done

echo "==> xlink-server + xlink-client over loopback [${SECONDS}s]" >&2
port=$(( 20000 + RANDOM % 20000 ))
"$bin/xlink-server" -listen "127.0.0.1:$port" >"$out/server.log" 2>&1 &
server_pid=$!
for _ in $(seq 50); do
	grep -q listening "$out/server.log" && break
	sleep 0.1
done
"$bin/xlink-client" -server "127.0.0.1:$port" >/dev/null 2>&1
kill -INT "$server_pid"
wait "$server_pid" || true
server_pid=""

echo "==> benchmark: untraced, traced, selfcheck, probes [${SECONDS}s]" >&2
"$bin/benchmark" -seconds 1 -out "$out/bench" >/dev/null
"$bin/benchmark" -seconds 1 -trace 1 -out "$out/bench" >/dev/null
"$bin/benchmark" -selfcheck -workload sim-bulk-clean -seconds 0.5 >/dev/null || true
"$bin/benchmark" -probes >/dev/null

# covdata prints "file:line:<tab>name<tab>percent" per function; keep the
# never-entered ones, less String methods, as "file:line:<tab>name".
go tool covdata func -i "$GOCOVERDIR" |
	awk -F'\t+' '$NF == "0.0%" && $2 !~ /(^|\.)String$/ { sub(/^repro\//, "", $1); print $1 "\t" $2 }' |
	sort
