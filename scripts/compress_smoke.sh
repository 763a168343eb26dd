#!/usr/bin/env bash
# compress-smoke: end-to-end check of wire compression.
#
# Builds raced and race2d under the Go race detector and asserts:
#   1. compressed parity: remote verdicts for every corpus program are
#      byte-identical to the local run in both -json and -stats modes,
#      and /metrics proves every event frame was a block and the blocks
#      saved bytes;
#   2. chaos parity: compressed blocks ride the fault-injecting
#      transport (-chaos all) to byte-identical verdicts, and blocks
#      are still what crossed the wire.
set -euo pipefail
SMOKE=compress-smoke
. "$(dirname "$0")/lib.sh"

build_tools

# metric NAME MADDR: print one counter's value from /metrics.
metric() {
	curl -fsS "http://$2/metrics" | sed -n "s/^$1 //p"
}

# assert_blocks MADDR LABEL: the server must report block frames.
assert_blocks() {
	local maddr=$1 label=$2
	local blocks
	blocks=$(metric raced_wire_blocks_total "$maddr")
	if [ -z "$blocks" ] || [ "$blocks" -eq 0 ]; then
		echo "compress-smoke: $label: no block frames on the wire (raced_wire_blocks_total=${blocks:-?})" >&2
		exit 1
	fi
}

# 1. Compressed corpus parity, then prove via the server's own
#    accounting that blocks carried every event byte and saved bytes.
start_raced main -addr 127.0.0.1:0 -metrics 127.0.0.1:0 -v
maddr=$(metrics_addr main)
echo "compress-smoke: raced on $addr, metrics on $maddr"
for f in cmd/race2d/testdata/*.fj; do
	for mode in -json -stats; do
		assert_parity "$f $mode" "$mode" "$f"
	done
done
assert_blocks "$maddr" "corpus"
raw=$(metric raced_wire_bytes_raw_total "$maddr")
comp=$(metric raced_wire_bytes_blocks_total "$maddr")
total=$(metric raced_wire_bytes_total "$maddr")
if [ "$comp" != "$total" ]; then
	echo "compress-smoke: only $comp of $total event-frame bytes were blocks" >&2
	exit 1
fi
if [ "$comp" -ge "$raw" ]; then
	echo "compress-smoke: blocks did not save bytes ($comp wire vs $raw raw)" >&2
	exit 1
fi
echo "compress-smoke: compression ok: $(metric raced_wire_blocks_total "$maddr") block(s), $raw raw -> $comp wire bytes (ratio $(metric raced_compress_ratio "$maddr"))"
stop_raced

# 2. Chaos parity with compression on: every corpus program through a
#    deliberately faulty transport, in compressed blocks, must still
#    produce byte-identical output (resume replays whole blocks, so
#    block boundaries are where fault recovery restarts).
start_raced chaos -addr 127.0.0.1:0 -metrics 127.0.0.1:0 \
	-chaos all -chaos-seed 7 -chaos-rate 0.01 -v
maddr=$(metrics_addr chaos)
for f in cmd/race2d/testdata/*.fj; do
	assert_parity "chaos $f" -json "$f"
done
assert_blocks "$maddr" "chaos"
echo "compress-smoke: chaos parity ok (blocks on a faulty transport)"
stop_raced
echo "compress-smoke: PASS"
