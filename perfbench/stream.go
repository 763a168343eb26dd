package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/client"
	"repro/internal/server"
	"repro/internal/store"
)

// streamBench is the `stream` workload: a closed loop of nproc clients,
// each running sessions back to back straight to one raced (default
// in-memory store, v3 compression on). Every session streams one ~1M
// event trace; the traces alternate between the pipeline and the racy
// fork-join program. Once the load stops, every session's verdict is
// fetched back by token.
type streamBench struct {
	cfg   *runConfig
	cases []*traceCase
}

type streamServer struct {
	srv    *server.Server
	addr   string
	openMs float64
}

// startStreamServer is the stream set-up: server, listener, Serve, and
// a TCP probe answered once the server is accepting.
func startStreamServer(t *tracer) (*streamServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := server.Config{}
	var openMs float64
	if t != nil {
		// The same store the server defaults to, wrapped so its calls are
		// timed.
		t0 := time.Now()
		cfg.Store = &tracedStore{Store: store.NewMemory(server.DefaultResumeWindow), tr: t}
		openMs = ms(time.Since(t0))
	}
	srv := server.New(cfg)
	var serveLn net.Listener = ln
	if t != nil {
		serveLn = t.listener(ln)
	}
	go srv.Serve(serveLn)
	s := &streamServer{srv: srv, addr: ln.Addr().String(), openMs: openMs}
	if err := probeUp(s.addr); err != nil {
		s.shutdown()
		return nil, err
	}
	return s, nil
}

func (s *streamServer) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// probeUp connects to addr and closes at once: raced and racedctl take
// an empty handshake as a health probe and answer nothing.
func probeUp(addr string) error {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("probe %s: %w", addr, err)
	}
	return c.Close()
}

func (b *streamBench) window(t *tracer) (*window, error) {
	guard := newLeakGuard()
	srv, setupS, err := setupReps(b.cfg.setupReps, guard,
		func() (*streamServer, error) { return startStreamServer(t) },
		(*streamServer).shutdown)
	if err != nil {
		return nil, err
	}

	// One untimed session per client first: the first session after
	// set-up pays for heap growth and cold caches that later ones do not.
	opts := []client.Option{client.WithoutHeartbeat()}
	warm := make([]sessionRec, b.cfg.nproc)
	var wwg sync.WaitGroup
	for c := range warm {
		wwg.Add(1)
		go func(c int) {
			defer wwg.Done()
			runSession(srv.addr, b.cases[c%len(b.cases)], opts, false, &warm[c])
		}(c)
	}
	wwg.Wait()
	for i := range warm {
		if err := warm[i].err; err != nil {
			srv.shutdown()
			return nil, fmt.Errorf("stream warm-up: %w", err)
		}
	}

	heap := startHeapSampler()
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(b.cfg.window())
	perClient := make([][]sessionRec, b.cfg.nproc)
	var wg sync.WaitGroup
	for c := 0; c < b.cfg.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Session k = c + j·nproc streams trace k mod 2. With an even
			// client count each client keeps one class, so a pipeline
			// session always shares the CPUs with a fork-join one and the
			// mix is the same in every run; a random order would change
			// which classes overlap, and with it the session times.
			for j := 0; time.Now().Before(deadline); j++ {
				k := c + j*b.cfg.nproc
				var r sessionRec
				keep := t != nil && j < reportSample/b.cfg.nproc
				runSession(srv.addr, b.cases[k%len(b.cases)], opts, keep, &r)
				perClient[c] = append(perClient[c], r)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	rt1 := readRuntime()
	peak := heap.peakMiB()
	var recs []sessionRec
	for _, rs := range perClient {
		recs = append(recs, rs...)
	}
	// Verdicts are fetched after the load, one at a time and from a
	// collected heap: under the saturated closed loop a fetch would time
	// the scheduler, not the store and the handshake.
	runtime.GC()
	for i := range recs {
		fetchVerdict(srv.addr, opts, &recs[i])
	}
	srvStats := srv.srv.Stats()
	if err := srv.shutdown(); err != nil {
		return nil, fmt.Errorf("stream teardown: %w", err)
	}
	if err := guard.check("stream teardown"); err != nil {
		return nil, err
	}

	w := &window{notes: map[string]any{}}
	w.attempted, w.failed, w.firstErr = tally(recs)
	byClass, fetchByClass := map[string][]float64{}, map[string][]float64{}
	var evIvs, sessIvs []interval
	var events, done float64
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		done++
		events += float64(r.events)
		evIvs = append(evIvs, interval{r.start, r.finished, float64(r.events)})
		sessIvs = append(sessIvs, interval{r.start, r.finished, 1})
		byClass[r.class] = append(byClass[r.class], ms(r.finished.Sub(r.start)))
		if r.fetchErr == nil {
			fetchByClass[r.class] = append(fetchByClass[r.class], ms(r.fetchEnd.Sub(r.fetchStart)))
		}
	}
	evRate, evSlices := sliceRate(evIvs, start, b.cfg.window(), b.cfg.slices())
	sessRate, _ := sliceRate(sessIvs, start, b.cfg.window(), b.cfg.slices())
	w.notes["events_per_s_slices"] = evSlices
	w.e2e = map[string]float64{
		"events_per_s":         evRate,
		"session_ms_p50":       classPercentile(byClass, 50),
		"session_ms_p99":       classPercentile(byClass, 99),
		"fetch_ms_p50":         classPercentile(fetchByClass, 50),
		"sessions_per_s":       sessRate,
		"wire_bytes_per_event": float64(srvStats.WireBytes) / events,
		"setup_s":              setupS,
		"peak_heap_mb":         peak,
	}
	w.notes["sessions"] = done
	w.notes["wall_s"] = wall.Seconds()
	w.notes["trace_events"] = traceEvents(b.cases)
	if t == nil {
		return w, nil
	}

	traceSessions(t, recs)
	l := map[string]float64{}
	if err := sessionLayers(l, t, recs, srvStats, b.cases); err != nil {
		return nil, err
	}
	l["store.open_ms"] = srv.openMs
	// No replication and no gateway on this path.
	l["repl.sync_us_p50"], l["repl.degraded_events"] = 0, 0
	l["cluster.hop_ms_p50"], l["cluster.fetch_fanouts"] = 0, 0
	alloc, gcFrac := rt1.since(rt0)
	l["runtime.alloc_bytes_per_event"] = alloc / events
	l["runtime.gc_cpu_frac"] = gcFrac
	w.layer = l
	return w, nil
}
