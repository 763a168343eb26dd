#!/usr/bin/env bash
# compress-smoke: end-to-end check of wire compression.
#
# Builds raced and race2d under the Go race detector and asserts:
#   1. compressed parity: with compression negotiated (the default),
#      remote verdicts for every corpus program are byte-identical to
#      the local run in both -json and -stats modes, and /metrics
#      proves block frames actually flowed and saved bytes;
#   2. opt-out parity: -no-compress keeps a session on plain event
#      frames, verdicts identical, zero block frames;
#   3. chaos parity: compressed blocks ride the fault-injecting
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

# assert_blocks WANT MADDR LABEL: the server must report block frames
# (WANT=some) or none at all (WANT=none).
assert_blocks() {
	local want=$1 maddr=$2 label=$3
	local blocks
	blocks=$(metric raced_wire_blocks_total "$maddr")
	case $want in
	some)
		if [ -z "$blocks" ] || [ "$blocks" -eq 0 ]; then
			echo "compress-smoke: $label: no block frames on the wire (raced_wire_blocks_total=${blocks:-?})" >&2
			exit 1
		fi
		;;
	none)
		if [ "$blocks" != 0 ]; then
			echo "compress-smoke: $label: unexpected block frames (raced_wire_blocks_total=$blocks)" >&2
			exit 1
		fi
		;;
	esac
}

# 1. Compressed corpus parity (compression is the default), then prove
#    via the server's own accounting that blocks flowed and saved bytes.
start_raced main -addr 127.0.0.1:0 -metrics 127.0.0.1:0 -v
maddr=$(metrics_addr main)
echo "compress-smoke: raced on $addr, metrics on $maddr"
for f in cmd/race2d/testdata/*.fj; do
	for mode in -json -stats; do
		assert_parity "$f $mode" "$mode" "$f"
	done
done
assert_blocks some "$maddr" "corpus"
raw=$(metric raced_wire_bytes_raw_total "$maddr")
comp=$(metric raced_wire_bytes_blocks_total "$maddr")
if [ "$comp" -ge "$raw" ]; then
	echo "compress-smoke: blocks did not save bytes ($comp wire vs $raw raw)" >&2
	exit 1
fi
echo "compress-smoke: compression ok: $(metric raced_wire_blocks_total "$maddr") block(s), $raw raw -> $comp wire bytes (ratio $(metric raced_compress_ratio "$maddr"))"
stop_raced

# 2. Client opt-out: -no-compress keeps a session on plain event frames
#    with an identical verdict.
start_raced plain -addr 127.0.0.1:0 -metrics 127.0.0.1:0 -v
maddr=$(metrics_addr plain)
for f in cmd/race2d/testdata/figure2.fj cmd/race2d/testdata/pipeline3x4.fj; do
	assert_parity "no-compress $f" -no-compress -json "$f"
done
assert_blocks none "$maddr" "-no-compress client"
echo "compress-smoke: -no-compress opt-out ok"
stop_raced

# 3. Chaos parity with compression on: every corpus program through a
#    deliberately faulty transport, in compressed blocks, must still
#    produce byte-identical output (resume replays whole blocks, so
#    block boundaries are where fault recovery restarts).
start_raced chaos -addr 127.0.0.1:0 -metrics 127.0.0.1:0 \
	-chaos all -chaos-seed 7 -chaos-rate 0.01 -v
maddr=$(metrics_addr chaos)
for f in cmd/race2d/testdata/*.fj; do
	assert_parity "chaos $f" -json "$f"
done
assert_blocks some "$maddr" "chaos"
echo "compress-smoke: chaos parity ok (blocks on a faulty transport)"
stop_raced
echo "compress-smoke: PASS"
