#!/usr/bin/env bash
# store-smoke: end-to-end check of the durable report store and
# multi-tenant auth through the real binaries.
#
# Builds raced and race2d under the Go race detector and asserts:
#   1. durability: verdicts run against a -store-dir raced (with
#      -tenant-keys auth) survive a SIGKILL and fetch back from a
#      restarted server byte-identical, by resume token;
#   2. auth: a wrong credential is refused terminally (no retry storm),
#      a missing one likewise;
#   3. tamper evidence: a single flipped byte in the log is detected —
#      the restarted server still serves reports recorded before the
#      damage and refuses the ones past it;
#   4. observability: /metrics exposes the raced_store_* counters and
#      the per-tenant gauges.
set -euo pipefail
SMOKE=store-smoke
. "$(dirname "$0")/lib.sh"

build_tools

store_dir=$tmp/reportlog
auth=acme:s3cret
keys='acme=s3cret:8:0'

# 1. Persist a verdict per corpus program, then SIGKILL and re-fetch.
start_raced s1 -addr 127.0.0.1:0 -store-dir "$store_dir" -tenant-keys "$keys" -v
echo "store-smoke: store-backed raced on $addr"

declare -A tokens codes
for f in cmd/race2d/testdata/*.fj; do
	name=$(basename "$f")
	code=0
	"$tmp/race2d" -remote "$addr" -auth "$auth" -json "$f" \
		>"$tmp/run-$name.out" 2>"$tmp/run-$name.err" || code=$?
	tok=$(sed -n 's/^race2d: note: resume token //p' "$tmp/run-$name.err")
	if [ -z "$tok" ]; then
		echo "store-smoke: $name: no resume token announced" >&2
		cat "$tmp/run-$name.err" >&2
		exit 1
	fi
	tokens[$name]=$tok
	codes[$name]=$code
done
stop_raced # SIGKILL; only the log directory survives

start_raced s2 -addr 127.0.0.1:0 -store-dir "$store_dir" -tenant-keys "$keys" -metrics 127.0.0.1:0 -v
for f in cmd/race2d/testdata/*.fj; do
	name=$(basename "$f")
	code=0
	"$tmp/race2d" -remote "$addr" -auth "$auth" -fetch "${tokens[$name]}" -json "$f" \
		>"$tmp/fetch-$name.out" 2>/dev/null || code=$?
	if [ "${codes[$name]}" != "$code" ]; then
		echo "store-smoke: $name: exit ${codes[$name]} original vs $code fetched" >&2
		exit 1
	fi
	if ! cmp -s "$tmp/run-$name.out" "$tmp/fetch-$name.out"; then
		echo "store-smoke: $name: fetched report differs from original" >&2
		diff "$tmp/run-$name.out" "$tmp/fetch-$name.out" >&2 || true
		exit 1
	fi
	echo "store-smoke: durable fetch ok: $name (token ${tokens[$name]})"
done

# 2. Credential gate: wrong and missing credentials are refused with
#    the terminal auth error, quickly (no retry loop).
for bad in "-auth acme:wrong" ""; do
	code=0
	# shellcheck disable=SC2086 # $bad is intentionally word-split
	"$tmp/race2d" -remote "$addr" $bad -json cmd/race2d/testdata/figure2.fj \
		>/dev/null 2>"$tmp/auth.err" || code=$?
	if [ "$code" != 2 ] || ! grep -q 'invalid tenant credentials' "$tmp/auth.err"; then
		echo "store-smoke: bad credential (${bad:-none}) not refused (exit $code)" >&2
		cat "$tmp/auth.err" >&2
		exit 1
	fi
done
echo "store-smoke: bad credentials refused terminally"

# 3. Observability: the store counters and per-tenant gauges are live.
maddr=$(metrics_addr s2)
curl -sf "http://$maddr/metrics" >"$tmp/metrics.out"
# Unlabeled samples are matched as '^name ', so a family's # HELP and
# # TYPE lines cannot stand in for a missing sample.
for metric in '^raced_store_records ' '^raced_store_puts_total ' 'raced_tenant_store_records{tenant="acme"}'; do
	if ! grep -q "$metric" "$tmp/metrics.out"; then
		echo "store-smoke: /metrics is missing $metric" >&2
		cat "$tmp/metrics.out" >&2
		exit 1
	fi
done
echo "store-smoke: raced_store_* metrics and per-tenant gauges exposed"
stop_raced

# 4. Tamper evidence: flip one byte in the last record of the log. The
#    restarted server must refuse the damaged report and still serve an
#    earlier one, unaltered.
seg=$(ls "$store_dir"/seg-*.log | tail -1)
size=$(wc -c <"$seg")
byte=$(od -An -tu1 -j "$((size - 1))" -N1 "$seg" | tr -d ' ')
printf "\\$(printf '%03o' "$((byte ^ 64))")" |
	dd of="$seg" bs=1 seek="$((size - 1))" conv=notrunc status=none

start_raced s3 -addr 127.0.0.1:0 -store-dir "$store_dir" -tenant-keys "$keys" -v
if ! grep -q 'tampered' "$tmp/s3.err"; then
	echo "store-smoke: restarted raced did not report the tampered log" >&2
	cat "$tmp/s3.err" >&2
	exit 1
fi
# The corpus runs in glob order, so the first program's record precedes
# the damage (last record) and must still fetch byte-identically.
first=$(basename "$(ls cmd/race2d/testdata/*.fj | head -1)")
last=$(basename "$(ls cmd/race2d/testdata/*.fj | tail -1)")
code=0
"$tmp/race2d" -remote "$addr" -auth "$auth" -fetch "${tokens[$first]}" -json \
	"cmd/race2d/testdata/$first" >"$tmp/pre.out" 2>/dev/null || code=$?
if [ "${codes[$first]}" != "$code" ] || ! cmp -s "$tmp/run-$first.out" "$tmp/pre.out"; then
	echo "store-smoke: pre-damage report no longer serves byte-identical" >&2
	exit 1
fi
code=0
"$tmp/race2d" -remote "$addr" -auth "$auth" -fetch "${tokens[$last]}" -json \
	"cmd/race2d/testdata/$last" >/dev/null 2>"$tmp/tamper.err" || code=$?
if [ "$code" != 2 ] || ! grep -q 'tampered' "$tmp/tamper.err"; then
	echo "store-smoke: post-damage report not refused as tampered (exit $code)" >&2
	cat "$tmp/tamper.err" >&2
	exit 1
fi
echo "store-smoke: tamper detected; pre-damage reports intact, damaged one refused"
echo "store-smoke: PASS"
