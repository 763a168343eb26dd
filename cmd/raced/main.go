// Command raced is the streaming race-detection server: it accepts
// concurrent wire-protocol sessions (see internal/wire), runs one
// detector engine per session, and answers each event stream with the
// engine's Report. Point race2d at it with -remote, or drive it with
// the client package.
//
// Usage:
//
//	raced [-addr :7471] [-metrics :7472] [-max-sessions 64]
//	      [-idle-timeout 0] [-resume-window 1m]
//	      [-store-dir dir] [-retention 0] [-no-sync]
//	      [-replicate-to addr,...] [-repl-key key]
//	      [-tenant-keys name=key[:maxSessions[:maxStoreBytes]],...]
//	      [-tenant-keys-file path] [-admin-key key]
//	      [-chaos none] [-chaos-seed 1] [-chaos-rate 0.02] [-v]
//
// On SIGINT/SIGTERM the server drains gracefully: every open session
// stops reading, detects the frames it already read, and receives a
// Report flagged partial.
//
// # Replication
//
// With -replicate-to (requires -store-dir), every record appended to
// the report log streams to the named follower raced instances over
// their ordinary wire listeners, chain-hash-verified on apply; a
// follower presents the catch-up position it already holds on
// reconnect, so restarts resync automatically. A Finish ack waits
// briefly for healthy followers but never fails because one is down —
// a lagging follower is demoted to degraded (retry with backoff) until
// it catches up, and dropped entirely only past the spill budget.
// Every raced with -store-dir also HOSTS replicas: inbound replication
// streams land under <store-dir>/replicas/<sourceID>/, -repl-key
// gates them, and resume-by-token falls back to hosted replicas when
// the home store does not know the token — so a fleet replicating
// pairwise serves any member's reports after that member dies.
//
// # Live tenant reconfiguration
//
// -tenant-keys-file names a file of tenant entries (same grammar as
// -tenant-keys, one per line, '#' comments; the two flags are mutually
// exclusive). SIGHUP re-reads it and swaps the table live: rotated
// keys and revoked tenants bite the very next handshake, no restart.
// In-flight sessions of a removed tenant get a short grace window,
// then the janitor evicts them. With -admin-key the same table is
// readable and writable over the metrics listener —
// GET/PUT /admin/tenants, plus GET /admin/reports?tenant=X[&token=hex]
// — behind "Authorization: Bearer <key>".
//
// With -store-dir, finished Reports persist to a hash-chained
// append-only log (internal/store) before the Finish is acked, so they
// survive crashes and restarts and remain retrievable by resume token
// (race2d -fetch, client.Fetch). -retention bounds how long persisted
// reports are kept (0 = forever); expired whole segments are pruned by
// the janitor. -no-sync skips the per-record fsync — faster, but a
// host crash may lose the latest acked reports (a kill of raced alone
// cannot). If the log fails verification at startup raced still
// serves, refusing only the records at and past the damage.
//
// With -tenant-keys, every client must present a "name:key" credential
// (race2d -auth, client.WithAuthToken); per-tenant session and storage
// quotas are enforced at admission.
//
// -chaos is a development flag: it wraps the session listener in the
// internal/faults injector, so every accepted connection suffers
// deterministic, seed-driven transport faults of the named classes
// (delay|corrupt|partial|drop|reset|all). Clients are expected to
// ride the faults out and still produce verdicts identical to a clean
// run; scripts/chaos_smoke.sh holds raced to exactly that.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/faults"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("raced", flag.ContinueOnError)
	var common cliflags.Common
	cliflags.Register(fs, ":7471", &common)
	maxSessions := fs.Int("max-sessions", server.DefaultMaxSessions, "live session cap; extra connections are refused")
	resumeWindow := fs.Duration("resume-window", server.DefaultResumeWindow, "keep disconnected sessions resumable this long")
	storeDir := fs.String("store-dir", "", "persist finished reports to a hash-chained log in this directory (empty = in-memory, resume-window retention)")
	retention := fs.Duration("retention", 0, "drop persisted reports older than this (0 = keep forever; requires -store-dir)")
	noSync := fs.Bool("no-sync", false, "skip per-record fsync in the report log (faster; host crash may lose the latest acks)")
	replicateTo := fs.String("replicate-to", "", "comma-separated follower raced addresses to stream the report log to (requires -store-dir)")
	replKey := fs.String("repl-key", "", "replication credential: presented to followers by -replicate-to, required of sources by this instance's replica hosting")
	adminKey := fs.String("admin-key", "", "enable /admin endpoints on the metrics listener behind this bearer key (empty disables)")
	chaos := fs.String("chaos", "", "inject transport faults of these classes on every session (delay|corrupt|partial|drop|reset|all; dev flag)")
	chaosSeed := fs.Int64("chaos-seed", 1, "deterministic fault schedule seed for -chaos")
	chaosRate := fs.Float64("chaos-rate", 0, "per-I/O fault probability for -chaos (0 = default 0.02)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logger := log.New(os.Stderr, "raced: ", log.LstdFlags)
	cfg := server.Config{
		MaxSessions:  *maxSessions,
		IdleTimeout:  common.IdleTimeout,
		ResumeWindow: *resumeWindow,
		AdminKey:     *adminKey,
		ReplKey:      *replKey,
	}
	if common.Verbose {
		cfg.Logf = logger.Printf
	}
	tenants, err := common.LoadTenants()
	if err != nil {
		logger.Print(err)
		return 2
	}
	cfg.Tenants = server.TenantTable(tenants)
	if *replicateTo != "" && *storeDir == "" {
		logger.Print("-replicate-to requires -store-dir")
		return 2
	}
	if *storeDir != "" {
		lg, err := store.OpenLog(store.LogConfig{
			Dir:       *storeDir,
			Retention: *retention,
			NoSync:    *noSync,
		})
		if err != nil {
			logger.Print(err)
			return 2
		}
		// A tampered log is worth serving — everything before the damage
		// is still verifiable — but the operator must know.
		if terr := lg.Tampered(); terr != nil {
			logger.Printf("WARNING: %v; serving the verified prefix, refusing writes", terr)
		}
		cfg.Store = lg
		// Every durable raced hosts replicas for its peers; the spill
		// directory lives inside the store dir so one flag provisions
		// both roles.
		replicas, err := repl.OpenReplicaSet(filepath.Join(*storeDir, "replicas"), *noSync, logger.Printf)
		if err != nil {
			logger.Print(err)
			return 2
		}
		cfg.Replicas = replicas
		if *replicateTo != "" {
			followers := strings.Split(*replicateTo, ",")
			for i := range followers {
				followers[i] = strings.TrimSpace(followers[i])
			}
			src := repl.NewSource(repl.SourceConfig{
				Log:       lg,
				Followers: followers,
				Key:       *replKey,
				Logf:      logger.Printf,
			})
			cfg.Store = repl.NewReplicatedStore(lg, src)
			logger.Printf("replicating %s (source %s) to %s", *storeDir, lg.ID(), strings.Join(followers, ", "))
		}
	} else if *retention != 0 {
		logger.Print("-retention requires -store-dir")
		return 2
	}
	srv := server.New(cfg)

	d := cliflags.Daemon{
		Name:       "raced",
		Log:        logger,
		SetTenants: func(specs []cliflags.TenantSpec) { srv.SetTenants(server.TenantTable(specs)) },
	}
	if *chaos != "" {
		classes, err := faults.ParseClass(*chaos)
		if err != nil {
			logger.Print(err)
			return 2
		}
		if classes != 0 {
			d.Wrap = func(ln net.Listener) net.Listener {
				logger.Printf("chaos: injecting %v faults (seed %d)", classes, *chaosSeed)
				return faults.New(faults.Config{
					Seed:    *chaosSeed,
					Classes: classes,
					Rate:    *chaosRate,
				}).Listener(ln)
			}
		}
	}
	return common.Run(srv, d)
}
