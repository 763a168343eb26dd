package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
)

// verdictsRate is the offered load of `verdicts`, in sessions per
// second: about half the closed-loop session capacity of the same fleet
// on a 2-vCPU host (198 sessions/s over 20 s, `perfbench --capacity`).
const verdictsRate = 100.0

// genLagLimit is the generator lateness (p99) past which a `verdicts`
// run is invalid: the load was not offered on schedule, so its
// latencies describe the generator, not the system.
const genLagLimit = 20 * time.Millisecond

// hopEvery is how often the traced run sends a session straight to the
// backend the ring would pick, to price the gateway hop.
const hopEvery = 8

const (
	tenantName = "bench"
	backends   = 2
)

// verdictsBench is the `verdicts` workload: an open loop of short racy
// sessions through a racedctl gateway to two raced backends, each
// persisting to a durable fsync'd report log that is chain-replicated
// to a follower. Every Report is fetched back by token through the
// gateway.
type verdictsBench struct {
	cfg   *runConfig
	cases []*traceCase
}

func (b *verdictsBench) auth() (tenants map[string]server.Tenant, edge map[string]string, token, replKey string) {
	key := fmt.Sprintf("key-%d", b.cfg.seed)
	return map[string]server.Tenant{tenantName: {Key: key}}, map[string]string{tenantName: key},
		tenantName + ":" + key, fmt.Sprintf("repl-%d", b.cfg.seed)
}

// backendDirs are one backend's primary log and its follower's replica
// directory.
type backendDirs struct{ primary, follower string }

// prepopulate writes n records into each backend's log and replicates
// them to its follower, then closes everything, so the timed set-up
// opens (and verifies) a chain a restarted raced would find.
func (b *verdictsBench) prepopulate(root string, n int) ([]backendDirs, error) {
	_, _, _, replKey := b.auth()
	rng := rand.New(rand.NewSource(b.cfg.seed))
	var dirs []backendDirs
	for i := 0; i < backends; i++ {
		d := backendDirs{
			primary:  filepath.Join(root, fmt.Sprintf("primary%d", i)),
			follower: filepath.Join(root, fmt.Sprintf("follower%d", i)),
		}
		if err := b.fillChain(d, n, rng, replKey); err != nil {
			return nil, err
		}
		dirs = append(dirs, d)
	}
	return dirs, nil
}

func (b *verdictsBench) fillChain(d backendDirs, n int, rng *rand.Rand, replKey string) error {
	lg, err := store.OpenLog(store.LogConfig{Dir: d.primary, NoSync: true})
	if err != nil {
		return err
	}
	defer lg.Close()
	for k := 0; k < n; k++ {
		rec := store.Record{Token: rng.Uint64() | 1, Session: uint64(k + 1), NextSeq: 1,
			Tenant: tenantName, JSON: b.cases[k%len(b.cases)].want}
		if err := lg.Put(rec); err != nil {
			return fmt.Errorf("pre-populate: %w", err)
		}
	}
	rs, err := repl.OpenReplicaSet(d.follower, true, nil)
	if err != nil {
		return err
	}
	fsrv := server.New(server.Config{Replicas: rs, ReplKey: replKey})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fsrv.Close()
		return err
	}
	go fsrv.Serve(ln)
	addr := ln.Addr().String()
	src := repl.NewSource(repl.SourceConfig{Log: lg, Followers: []string{addr}, Key: replKey})
	next, _ := lg.ChainPos()
	deadline := time.Now().Add(60 * time.Second)
	for src.Stats().Acked[addr] < next {
		if time.Now().After(deadline) {
			err = errors.New("pre-populate: follower did not catch up within 60s")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	src.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := fsrv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// fleet is the running `verdicts` system.
type fleet struct {
	followers, primaries []*server.Server
	sources              []*repl.Source
	gw                   *cluster.Gateway
	gwAddr               string
	backendAddrs         []string
	openMs               []float64
}

// startFleet is the timed `verdicts` set-up: per backend, the follower
// (replica set open and Serve), the primary's log open with its chain
// verification, the replication handshake, and the primary server; then
// the gateway, and a probe of every endpoint with the ring all Up.
func (b *verdictsBench) startFleet(dirs []backendDirs, t *tracer) (*fleet, error) {
	tenants, edge, _, replKey := b.auth()
	f := &fleet{}
	fail := func(err error) (*fleet, error) {
		f.shutdown()
		return nil, err
	}
	for _, d := range dirs {
		rs, err := repl.OpenReplicaSet(d.follower, false, nil)
		if err != nil {
			return fail(err)
		}
		fsrv := server.New(server.Config{Replicas: rs, ReplKey: replKey, Tenants: tenants})
		f.followers = append(f.followers, fsrv)
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		go fsrv.Serve(fln)

		t0 := time.Now()
		lg, err := store.OpenLog(store.LogConfig{Dir: d.primary})
		if err != nil {
			return fail(err)
		}
		f.openMs = append(f.openMs, ms(time.Since(t0)))
		src := repl.NewSource(repl.SourceConfig{Log: lg, Followers: []string{fln.Addr().String()}, Key: replKey})
		var st store.Store = repl.NewReplicatedStore(lg, src)
		if t != nil {
			st = &tracedStore{Store: st, tr: t}
		}
		psrv := server.New(server.Config{Store: st, Tenants: tenants})
		f.primaries = append(f.primaries, psrv)
		f.sources = append(f.sources, src)
		pln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		var serveLn net.Listener = pln
		if t != nil {
			serveLn = t.listener(pln)
		}
		go psrv.Serve(serveLn)
		f.backendAddrs = append(f.backendAddrs, pln.Addr().String())
		deadline := time.Now().Add(10 * time.Second)
		for src.Stats().Connected < 1 {
			if time.Now().After(deadline) {
				return fail(errors.New("follower handshake did not complete within 10s"))
			}
			time.Sleep(time.Millisecond)
		}
	}
	var members []cluster.Backend
	for _, a := range f.backendAddrs {
		members = append(members, cluster.Backend{Addr: a})
	}
	gw, err := cluster.NewGateway(cluster.Config{Backends: members, Tenants: edge})
	if err != nil {
		return fail(err)
	}
	f.gw = gw
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	go gw.Serve(gln)
	f.gwAddr = gln.Addr().String()
	for _, a := range append([]string{f.gwAddr}, f.backendAddrs...) {
		if err := probeUp(a); err != nil {
			return fail(err)
		}
	}
	if up := gw.Ring().UpCount(); up != len(f.backendAddrs) {
		return fail(fmt.Errorf("gateway ring has %d of %d backends up", up, len(f.backendAddrs)))
	}
	return f, nil
}

// shutdown stops the gateway, then the primaries (which stop
// replication and close their logs), then the followers.
func (f *fleet) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if f.gw != nil {
		errs = append(errs, f.gw.Shutdown(ctx))
	}
	for _, s := range f.primaries {
		errs = append(errs, s.Shutdown(ctx))
	}
	for _, s := range f.followers {
		errs = append(errs, s.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// routeKey spreads sessions over the ring deterministically per seed.
func routeKey(seed int64, k int) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return x | 1
}

// balancedKeys picks session k's route key: the first key from
// routeKey(seed, k) on that the ring places on backend k mod 2. The
// backends' hash points follow from the ports they happened to get, so
// plain keys would split the sessions unevenly, and differently in
// every run; these alternate.
func balancedKeys(ring *cluster.Ring, backends []string, seed int64, n int) []uint64 {
	keys := make([]uint64, n)
	for k := range keys {
		key := routeKey(seed, k)
		for {
			if addr, _ := ring.Lookup(key); addr == backends[k%len(backends)] {
				break
			}
			key += 2
		}
		keys[k] = key
	}
	return keys
}

func (b *verdictsBench) window(t *tracer) (*window, error) {
	root := filepath.Join(b.cfg.dir, fmt.Sprintf("verdicts-%d", time.Now().UnixNano()))
	dirs, err := b.prepopulate(root, b.cfg.sz.chainRecords)
	if err != nil {
		return nil, err
	}
	guard := newLeakGuard()
	f, setupS, err := setupReps(b.cfg.setupReps, guard,
		func() (*fleet, error) { return b.startFleet(dirs, t) },
		(*fleet).shutdown)
	if err != nil {
		return nil, err
	}
	_, _, auth, _ := b.auth()

	rate := b.cfg.rate
	n := int(math.Round(b.cfg.window().Seconds() * rate))
	keys := balancedKeys(f.gw.Ring(), f.backendAddrs, b.cfg.seed, n)
	heap := startHeapSampler()
	rt0 := readRuntime()
	type job struct {
		k   int
		due time.Time
		lag time.Duration
	}
	jobs := make(chan job, n) // one slot per session: the generator never blocks
	start := time.Now().Add(20 * time.Millisecond)
	go func() {
		defer close(jobs)
		for k := 0; k < n; k++ {
			due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			jobs <- job{k: k, due: due, lag: time.Since(due)}
		}
	}()
	recs := make([]sessionRec, n)
	var wg sync.WaitGroup
	for s := 0; s < b.cfg.nproc; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r := &recs[j.k]
				key := keys[j.k]
				opts := []client.Option{client.WithoutHeartbeat(), client.WithAuthToken(auth), client.WithRouteKey(key)}
				addr := f.gwAddr
				if t != nil && j.k%hopEvery == hopEvery-1 {
					// Interleaved hop sample: same route key, straight to the
					// backend the ring picks for it.
					addr, _ = f.gw.Ring().Lookup(key)
					r.direct = true
				}
				runSession(addr, b.cases[j.k%len(b.cases)], opts, t != nil && j.k < reportSample, r)
				fetchVerdict(addr, opts, r)
				r.due, r.genLag = j.due, j.lag
			}
		}()
	}
	wg.Wait()
	windowEnd := start.Add(b.cfg.window())
	rt1 := readRuntime()
	peak := heap.peakMiB()
	var wireBytes uint64
	for _, p := range f.primaries {
		wireBytes += p.Stats().WireBytes
	}
	srvStats := f.primaries[0].Stats()
	for _, p := range f.primaries[1:] {
		st := p.Stats()
		srvStats.Frames += st.Frames
		srvStats.ProducerStalls += st.ProducerStalls
		srvStats.MaxQueueDepth = max(srvStats.MaxQueueDepth, st.MaxQueueDepth)
	}
	gwStats := f.gw.Stats()
	var degraded uint64
	for _, s := range f.sources {
		degraded += s.Stats().DegradedEvents
	}
	openMs := median(f.openMs)
	if err := f.shutdown(); err != nil {
		return nil, fmt.Errorf("verdicts teardown: %w", err)
	}
	if err := guard.check("verdicts teardown"); err != nil {
		return nil, err
	}

	w := &window{notes: map[string]any{}}
	w.attempted, w.failed, w.firstErr = tally(recs)
	var lat, fetch, lags, inWindowEvents, allEvents []float64
	var inWindow, outstanding float64
	for i := range recs {
		r := &recs[i]
		lags = append(lags, ms(r.genLag))
		if r.err != nil || r.finished.After(windowEnd) {
			outstanding++
		}
		if r.err != nil {
			continue
		}
		allEvents = append(allEvents, float64(r.events))
		if r.direct {
			continue
		}
		lat = append(lat, ms(r.finished.Sub(r.due)))
		if r.fetchErr == nil {
			fetch = append(fetch, ms(r.fetchEnd.Sub(r.fetchStart)))
		}
		if !r.finished.After(windowEnd) {
			inWindow++
			inWindowEvents = append(inWindowEvents, float64(r.events))
		}
	}
	secs := b.cfg.window().Seconds()
	w.e2e = map[string]float64{
		"events_per_s":         sum(inWindowEvents) / secs,
		"session_ms_p50":       median(lat),
		"session_ms_p99":       percentile(lat, 99),
		"fetch_ms_p50":         median(fetch),
		"sessions_per_s":       inWindow / secs,
		"wire_bytes_per_event": float64(wireBytes) / sum(allEvents),
		"setup_s":              setupS,
		"peak_heap_mb":         peak,
	}
	lagP99, lagMax := percentile(lags, 99), percentile(lags, 100)
	w.notes["trace_events"] = traceEvents(b.cases)
	w.notes["offered_rate"] = rate
	w.notes["sessions_due"] = n
	w.notes["gen_lag_ms_p99"] = lagP99
	w.notes["gen_lag_ms_max"] = lagMax
	w.notes["outstanding_at_end"] = outstanding
	if lagP99 > ms(genLagLimit) {
		w.invalid = fmt.Sprintf("generator fell behind: lateness p99 %.1f ms > %.0f ms", lagP99, ms(genLagLimit))
	}
	if t == nil {
		return w, nil
	}

	traceSessions(t, recs)
	l := map[string]float64{}
	if err := sessionLayers(l, t, recs, srvStats, b.cases[:min(len(b.cases), 32)]); err != nil {
		return nil, err
	}
	l["store.open_ms"] = openMs
	bare, err := bareLogPuts(filepath.Join(root, "bare"), t.sample)
	if err != nil {
		return nil, err
	}
	l["repl.sync_us_p50"] = l["store.put_us_p50"] - median(bare)
	l["repl.degraded_events"] = float64(degraded)
	var gwSess, direct []float64
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		if r.direct {
			direct = append(direct, ms(r.finished.Sub(r.start)))
		} else {
			gwSess = append(gwSess, ms(r.finished.Sub(r.start)))
		}
	}
	l["cluster.hop_ms_p50"] = median(gwSess) - median(direct)
	l["cluster.fetch_fanouts"] = float64(gwStats.FetchFanouts)
	alloc, gcFrac := rt1.since(rt0)
	l["runtime.alloc_bytes_per_event"] = alloc / sum(allEvents)
	l["runtime.gc_cpu_frac"] = gcFrac
	w.layer = l
	return w, nil
}

// runCapacity measures the closed-loop session capacity of the verdicts
// fleet: nproc senders run sessions back to back for the window. The
// offered rate of `verdicts` is set at about half of it.
func runCapacity(cfg *runConfig, stdout, stderr io.Writer) int {
	cfg.workload = "verdicts"
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)
	cases, err := verdictCases(cfg.seed, cfg.sz)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &verdictsBench{cfg: cfg, cases: cases}
	dirs, err := b.prepopulate(cfg.dir, cfg.sz.chainRecords)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	f, err := b.startFleet(dirs, nil)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	_, _, auth, _ := b.auth()
	var done, failed atomic.Int64
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(cfg.window())
	var wg sync.WaitGroup
	for s := 0; s < cfg.nproc; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1))
				opts := []client.Option{client.WithoutHeartbeat(), client.WithAuthToken(auth), client.WithRouteKey(routeKey(cfg.seed, k))}
				var r sessionRec
				runSession(f.gwAddr, cases[k%len(cases)], opts, false, &r)
				fetchVerdict(f.gwAddr, opts, &r)
				if r.err != nil || r.fetchErr != nil {
					failed.Add(1)
				} else {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := f.shutdown(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "verdicts closed-loop capacity: %.1f sessions/s (%d sessions, %d failed, %d senders, %.1fs)\n",
		float64(done.Load())/wall.Seconds(), done.Load(), failed.Load(), cfg.nproc, wall.Seconds())
	if failed.Load() > 0 {
		return 1
	}
	return 0
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
