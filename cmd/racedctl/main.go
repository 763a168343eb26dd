// Command racedctl is the cluster gateway for a fleet of raced
// backends: it accepts ordinary wire-protocol sessions and routes each
// one to a backend by consistent-hashing its routing key (the client's
// Hello.RouteKey, or a gateway-picked key) over a health-check-driven
// membership ring, then proxies frames bidirectionally without
// decoding payloads — compressed blocks cross the gateway
// untouched. Resume tokens learned from backend Welcomes pin
// reconnects to their home backend; when that backend drains or dies
// the token is re-routed and a RetainAll client replays its stream
// into a fresh session there, so failover is verdict-preserving and
// invisible above client.Session.
//
// Usage:
//
//	racedctl -backends host:port[=healthhost:port],... [-addr :7470]
//	         [-metrics :7473] [-replication 64] [-probe-interval 500ms]
//	         [-probe-fails 3] [-session-ttl 10m] [-idle-timeout 0]
//	         [-drain-timeout 10s] [-v]
//
// Each -backends entry is a raced wire address, optionally followed by
// =metricsaddr; with a metrics address the gateway probes HTTP
// /healthz (and sees drains as they start), without one it falls back
// to a bare TCP probe (liveness only).
//
// The shared flags (-idle-timeout, -drain-timeout, -addr, -metrics,
// -tenant-keys, -tenant-keys-file, -v) spell and default exactly as in
// raced, and the two share one lifecycle: the same announcements,
// SIGHUP reload, drain and exit codes (see internal/cliflags). With
// -tenant-keys (or -tenant-keys-file, which SIGHUP reloads live) the
// gateway refuses bad or missing tenant credentials at the edge,
// before a backend connection is spent; the Hello still crosses
// byte-identically, so backends sharing the keys re-verify (quota
// enforcement stays with them).
//
// When a resumed token's routed backend answers unknown-resume, the
// gateway fans the fetch out to every other Up backend in parallel and
// adopts the first Welcome — so a report persisted by a backend that
// later died is still fetchable through the gateway from any follower
// replicating that backend's store (raced -replicate-to).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/cluster"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// parseBackends parses the -backends list: comma-separated wire
// addresses, each optionally suffixed with =healthaddr.
func parseBackends(spec string) ([]cluster.Backend, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("racedctl: -backends is required (host:port[=healthaddr],...)")
	}
	var out []cluster.Backend
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		addr, health, _ := strings.Cut(item, "=")
		if addr == "" {
			return nil, fmt.Errorf("racedctl: empty backend address in %q", spec)
		}
		out = append(out, cluster.Backend{Addr: addr, Health: health})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("racedctl: -backends lists no backends")
	}
	return out, nil
}

// edgeTenants keeps what the gateway checks of each tenant: its key.
// Quotas are the backends' to enforce against their own stores.
func edgeTenants(specs []cliflags.TenantSpec) map[string]string {
	table := make(map[string]string, len(specs))
	for _, t := range specs {
		table[t.Name] = t.Key
	}
	return table
}

func run(args []string) int {
	fs := flag.NewFlagSet("racedctl", flag.ContinueOnError)
	var common cliflags.Common
	cliflags.Register(fs, ":7470", &common)
	backendsSpec := fs.String("backends", "", "raced backends to route over: host:port[=healthaddr],... (required)")
	replication := fs.Int("replication", 0, "consistent-hash points per backend (0 = default 64)")
	probeInterval := fs.Duration("probe-interval", 0, "health probe cadence (0 = default 500ms)")
	probeFails := fs.Int("probe-fails", 0, "consecutive probe failures before a backend is down (0 = default 3)")
	sessionTTL := fs.Duration("session-ttl", 0, "forget resume-token routes unused this long (0 = default 10m)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logger := log.New(os.Stderr, "racedctl: ", log.LstdFlags)
	backends, err := parseBackends(*backendsSpec)
	if err != nil {
		logger.Print(err)
		return 2
	}
	tenants, err := common.LoadTenants()
	if err != nil {
		logger.Print(err)
		return 2
	}
	cfg := cluster.Config{
		Backends:      backends,
		Replication:   *replication,
		ProbeInterval: *probeInterval,
		ProbeFails:    *probeFails,
		SessionTTL:    *sessionTTL,
		IdleTimeout:   common.IdleTimeout,
		Tenants:       edgeTenants(tenants),
	}
	if common.Verbose {
		cfg.Logf = logger.Printf
	}
	gw, err := cluster.NewGateway(cfg)
	if err != nil {
		logger.Print(err)
		return 2
	}
	return common.Run(gw, cliflags.Daemon{
		Name:       "racedctl",
		Log:        logger,
		Notes:      []string{fmt.Sprintf("routing over %d backend(s)", len(backends))},
		SetTenants: func(specs []cliflags.TenantSpec) { gw.SetTenants(edgeTenants(specs)) },
	})
}
