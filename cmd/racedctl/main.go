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
//	         [-probe-fails 3] [-session-ttl 10m] [-queue-cap 4096]
//	         [-idle-timeout 0] [-drain-timeout 10s] [-v]
//
// Each -backends entry is a raced wire address, optionally followed by
// =metricsaddr; with a metrics address the gateway probes HTTP
// /healthz (and sees drains as they start), without one it falls back
// to a bare TCP probe (liveness only).
//
// The shared flags (-queue-cap, -idle-timeout, -drain-timeout, -addr,
// -metrics, -tenant-keys, -tenant-keys-file, -v)
// spell and default exactly as in raced — see internal/cliflags. With
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
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"

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

func run(args []string) int {
	fs := flag.NewFlagSet("racedctl", flag.ContinueOnError)
	var common cliflags.Common
	cliflags.Register(fs, ":7470", &common)
	backendsSpec := fs.String("backends", "", "raced backends to route over: host:port[=healthaddr],... (required)")
	replication := fs.Int("replication", 0, "consistent-hash points per backend (0 = default 64)")
	probeInterval := fs.Duration("probe-interval", 0, "health probe cadence (0 = default 500ms)")
	probeFails := fs.Int("probe-fails", 0, "consecutive probe failures before a backend is down (0 = default 3)")
	sessionTTL := fs.Duration("session-ttl", 0, "forget resume-token routes unused this long (0 = default 10m)")
	var tenantKeys, tenantKeysFile string
	cliflags.RegisterTenantKeys(fs, &tenantKeys)
	cliflags.RegisterTenantKeysFile(fs, &tenantKeysFile)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logger := log.New(os.Stderr, "racedctl: ", log.LstdFlags)
	backends, err := parseBackends(*backendsSpec)
	if err != nil {
		logger.Print(err)
		return 2
	}
	if tenantKeys != "" && tenantKeysFile != "" {
		logger.Print("-tenant-keys and -tenant-keys-file are mutually exclusive")
		return 2
	}
	var tenants []cliflags.TenantSpec
	if tenantKeysFile != "" {
		data, err := os.ReadFile(tenantKeysFile)
		if err != nil {
			logger.Print(err)
			return 2
		}
		tenants, err = cliflags.ParseTenantKeysFile(data)
		if err != nil {
			logger.Print(err)
			return 2
		}
	} else if tenants, err = cliflags.ParseTenantKeys(tenantKeys); err != nil {
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
		// -queue-cap counts events, like raced's engine queue; size the
		// relay buffers for that many encoded events (~16 bytes each,
		// generously, before compression).
		BufBytes: common.QueueCap * 16,
	}
	if len(tenants) > 0 {
		cfg.Tenants = make(map[string]string, len(tenants))
		for _, t := range tenants {
			// The gateway checks credentials only; quotas are the
			// backends' to enforce against their own stores.
			cfg.Tenants[t.Name] = t.Key
		}
	}
	if common.Verbose {
		cfg.Logf = logger.Printf
	}
	gw, err := cluster.NewGateway(cfg)
	if err != nil {
		logger.Print(err)
		return 2
	}

	// SIGHUP swaps the edge tenant table live from -tenant-keys-file,
	// mirroring raced: rotated keys bite the next handshake, no restart.
	if tenantKeysFile != "" {
		hupc := make(chan os.Signal, 1)
		signal.Notify(hupc, syscall.SIGHUP)
		go func() {
			for range hupc {
				data, err := os.ReadFile(tenantKeysFile)
				if err != nil {
					logger.Printf("SIGHUP: %v (keeping current tenant table)", err)
					continue
				}
				specs, err := cliflags.ParseTenantKeysFile(data)
				if err != nil {
					logger.Printf("SIGHUP: %v (keeping current tenant table)", err)
					continue
				}
				table := make(map[string]string, len(specs))
				for _, t := range specs {
					table[t.Name] = t.Key
				}
				gw.SetTenants(table)
				logger.Printf("SIGHUP: tenant table reloaded (%d tenants)", len(specs))
			}
		}()
	}

	ln, err := net.Listen("tcp", common.Addr)
	if err != nil {
		logger.Print(err)
		return 2
	}
	// Announce the resolved address (":0" picks a free port) on stdout so
	// scripts and the cluster-smoke harness can find it.
	fmt.Printf("racedctl: listening on %s\n", ln.Addr())
	fmt.Printf("racedctl: routing over %d backend(s)\n", len(backends))
	os.Stdout.Sync()

	var obsSrv *http.Server
	if common.Metrics != "" {
		mln, err := net.Listen("tcp", common.Metrics)
		if err != nil {
			logger.Print(err)
			return 2
		}
		fmt.Printf("racedctl: metrics on http://%s\n", mln.Addr())
		obsSrv = &http.Server{Handler: gw.Handler()}
		go obsSrv.Serve(mln)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	var draining atomic.Bool
	done := make(chan int, 1)
	go func() {
		sig := <-sigc
		draining.Store(true)
		logger.Printf("%v: draining (%v budget)", sig, common.DrainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), common.DrainTimeout)
		defer cancel()
		code := 0
		if err := gw.Shutdown(ctx); err != nil {
			logger.Printf("drain incomplete: %v", err)
			gw.Close()
			code = 1
		}
		if obsSrv != nil {
			obsSrv.Close()
		}
		done <- code
	}()

	err = gw.Serve(ln)
	if draining.Load() {
		code := <-done
		logger.Print("shut down")
		return code
	}
	logger.Print(err)
	return 2
}
