#!/usr/bin/env bash
# cluster-smoke: end-to-end check of the racedctl cluster gateway.
#
# Builds raced, racedctl and race2d under the Go race detector, starts
# three raced backends and one racedctl routing over them, and asserts:
#   1. remote output through the gateway (-json and text) is
#      byte-identical to the local run for every corpus program, with
#      matching exit codes;
#   2. the fleet — not one backend — carried those sessions
#      (racedctl_backend_sessions_routed_total spread over >1 backend);
#   3. gateway /healthz and /metrics answer;
#   4. SIGKILL of the backend carrying a live session mid-stream is
#      invisible: the client's verdict stays byte-identical to local,
#      and /metrics proves a re-route (racedctl_reroutes_total > 0);
#   5. SIGTERM drains the gateway gracefully (exit 0);
#   6. a second racedctl started with -tenant-keys-file applies a
#      rewritten file on SIGHUP: racedctl_tenant_reloads_total counts
#      the reload, the old key is refused at the edge, the new one
#      routes, and SIGTERM still drains it (exit 0).
set -euo pipefail
SMOKE=cluster-smoke
. "$(dirname "$0")/lib.sh"

build_tools
echo "cluster-smoke: building racedctl (-race)"
go build -race -o "$tmp/racedctl" ./cmd/racedctl

# Three backends, each with an observability listener so the gateway
# probes real /healthz.
backend_pids=()
backend_addrs=()
spec=
for i in 1 2 3; do
	start_fleet_proc "backend$i" 'raced: listening on ' "$tmp/raced" \
		-addr 127.0.0.1:0 -metrics 127.0.0.1:0 -v
	backend_pids+=("$fleet_pid")
	backend_addrs+=("$addr")
	spec="$spec${spec:+,}$addr=$(metrics_addr "backend$i")"
done
echo "cluster-smoke: backends $spec"

start_fleet_proc gateway 'racedctl: listening on ' "$tmp/racedctl" \
	-addr 127.0.0.1:0 -metrics 127.0.0.1:0 -backends "$spec" \
	-probe-interval 100ms -v
gw_pid=$fleet_pid
gmaddr=$(wait_line "$tmp/gateway.out" 'racedctl: metrics on http://')
echo "cluster-smoke: gateway on $addr, metrics on $gmaddr"

# gw_metric NAME: read one un-labelled gateway counter.
gw_metric() {
	curl -fsS "http://$gmaddr/metrics" | sed -n "s/^$1 //p"
}

# routed_to ADDR: sessions the gateway has placed on a backend.
routed_to() {
	curl -fsS "http://$gmaddr/metrics" |
		sed -n "s|^racedctl_backend_sessions_routed_total{backend=\"$1\"} ||p"
}

# 1. Corpus parity through the gateway ($addr still points at it).
for f in cmd/race2d/testdata/*.fj; do
	for mode in -json -stats; do
		assert_parity "$f $mode" "$mode" "$f"
	done
done

# 2. The corpus sessions must have spread over more than one backend:
#    each race2d invocation is a fresh session with a fresh routing key.
spread=0
for a in "${backend_addrs[@]}"; do
	placed=$(routed_to "$a")
	echo "cluster-smoke: backend $a carried ${placed:-0} session(s)"
	[ "${placed:-0}" -gt 0 ] && spread=$((spread + 1))
done
if [ "$spread" -lt 2 ]; then
	echo "cluster-smoke: all corpus sessions landed on one backend" >&2
	exit 1
fi
echo "cluster-smoke: sessions spread over $spread backends"

# 3. Gateway observability.
curl -fsS "http://$gmaddr/healthz" | grep -q '"status":"ok"' || {
	echo "cluster-smoke: gateway /healthz failed" >&2
	exit 1
}
curl -fsS "http://$gmaddr/metrics" | grep -q '^racedctl_sessions_routed_total ' || {
	echo "cluster-smoke: gateway /metrics failed" >&2
	exit 1
}
echo "cluster-smoke: gateway /healthz and /metrics ok"

# 4. Mid-stream SIGKILL of the carrying backend. A long clean program
#    streams through the gateway; the per-backend routed counters
#    identify the carrier, which dies abruptly (state, tokens, reports
#    all gone). The client must still exit with the local verdict,
#    byte-identical, courtesy of gateway re-routing + full replay.
{
	echo "repeat 300000 { read x write x }"
} >"$tmp/big.fj"
"$tmp/race2d" -json "$tmp/big.fj" >"$tmp/local.out" 2>/dev/null
before=()
for a in "${backend_addrs[@]}"; do
	before+=("$(routed_to "$a")")
done
"$tmp/race2d" -remote "$addr" -json "$tmp/big.fj" >"$tmp/remote.out" 2>"$tmp/client.err" &
client_pid=$!
carrier=
for _ in $(seq 1 100); do
	for i in 0 1 2; do
		now=$(routed_to "${backend_addrs[$i]}")
		if [ "${now:-0}" -gt "${before[$i]:-0}" ]; then
			carrier=$i
			break 2
		fi
	done
	sleep 0.05
done
if [ -z "$carrier" ]; then
	echo "cluster-smoke: never saw the big stream get routed" >&2
	exit 1
fi
echo "cluster-smoke: SIGKILL backend $((carrier + 1)) (${backend_addrs[$carrier]}) mid-stream"
kill -9 "${backend_pids[$carrier]}"
ccode=0
wait "$client_pid" || ccode=$?
if [ "$ccode" != 0 ]; then
	echo "cluster-smoke: client exit $ccode after backend SIGKILL (want 0)" >&2
	cat "$tmp/client.err" >&2
	exit 1
fi
if ! cmp -s "$tmp/local.out" "$tmp/remote.out"; then
	echo "cluster-smoke: verdict changed across backend death" >&2
	diff "$tmp/local.out" "$tmp/remote.out" >&2 || true
	exit 1
fi
reroutes=$(gw_metric racedctl_reroutes_total)
if [ "${reroutes:-0}" -lt 1 ]; then
	echo "cluster-smoke: /metrics shows no re-route after backend death" >&2
	curl -fsS "http://$gmaddr/metrics" >&2 || true
	exit 1
fi
echo "cluster-smoke: verdict survived backend death byte-identical ($reroutes re-route(s))"

# 5. Graceful gateway shutdown.
kill -TERM "$gw_pid"
gcode=0
wait "$gw_pid" || gcode=$?
if [ "$gcode" != 0 ]; then
	echo "cluster-smoke: racedctl exit $gcode after SIGTERM (want 0)" >&2
	cat "$tmp/gateway.err" >&2
	exit 1
fi
echo "cluster-smoke: graceful gateway SIGTERM ok"

# 6. SIGHUP reload of the gateway's -tenant-keys-file, over the
#    backends still alive. The backends run open, so the edge table
#    alone decides which key is admitted.
live_spec=
for i in 0 1 2; do
	[ "$i" = "$carrier" ] && continue
	live_spec="$live_spec${live_spec:+,}${backend_addrs[$i]}=$(metrics_addr "backend$((i + 1))")"
done
prog=cmd/race2d/testdata/figure2.fj
lcode=0
"$tmp/race2d" -json "$prog" >"$tmp/local.out" 2>/dev/null || lcode=$?
printf 'acme=k1\n' >"$tmp/keys"
start_fleet_proc hupgw 'racedctl: listening on ' "$tmp/racedctl" \
	-addr 127.0.0.1:0 -metrics 127.0.0.1:0 -backends "$live_spec" \
	-probe-interval 100ms -tenant-keys-file "$tmp/keys" -v
hup_pid=$fleet_pid
hmaddr=$(wait_line "$tmp/hupgw.out" 'racedctl: metrics on http://')
rcode=0
"$tmp/race2d" -remote "$addr" -auth acme:k1 -json "$prog" \
	>"$tmp/h1.out" 2>/dev/null || rcode=$?
if [ "$lcode" != "$rcode" ] || ! cmp -s "$tmp/local.out" "$tmp/h1.out"; then
	echo "cluster-smoke: keys-file gateway authed run broken (exit $lcode vs $rcode)" >&2
	exit 1
fi
printf '# rotated by cluster-smoke\nacme=k2\n' >"$tmp/keys"
kill -HUP "$hup_pid"
wait_metric "$hmaddr" racedctl_tenant_reloads_total 1
code=0
"$tmp/race2d" -remote "$addr" -auth acme:k1 -json "$prog" \
	>/dev/null 2>"$tmp/hup.err" || code=$?
if [ "$code" = 0 ] || ! grep -q 'invalid tenant credentials' "$tmp/hup.err"; then
	echo "cluster-smoke: SIGHUP-rotated key still admitted at the edge (exit $code)" >&2
	exit 1
fi
rcode=0
"$tmp/race2d" -remote "$addr" -auth acme:k2 -json "$prog" \
	>"$tmp/h2.out" 2>/dev/null || rcode=$?
if [ "$lcode" != "$rcode" ] || ! cmp -s "$tmp/local.out" "$tmp/h2.out"; then
	echo "cluster-smoke: post-SIGHUP key run differs (exit $lcode vs $rcode)" >&2
	exit 1
fi
kill -TERM "$hup_pid"
gcode=0
wait "$hup_pid" || gcode=$?
if [ "$gcode" != 0 ]; then
	echo "cluster-smoke: keys-file racedctl exit $gcode after SIGTERM (want 0)" >&2
	cat "$tmp/hupgw.err" >&2
	exit 1
fi
echo "cluster-smoke: gateway SIGHUP reload live — old key refused, new accepted"
echo "cluster-smoke: PASS"
