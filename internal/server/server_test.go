package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/fj"
	"repro/internal/leakcheck"
	"repro/internal/prog"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"

	race2d "repro"
)

// startServer serves cfg on a loopback port until the test ends. The
// first server a test starts also takes a goroutine baseline, and after
// the test's last server has closed, every goroutine started since —
// the servers' and their clients' — must have exited.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	// Registered before the server's own Close, so it runs after it (and
	// after the Close of every later server in this test).
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cfg)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// renderJSON renders a report exactly the way cmd/race2d -json does:
// Tasks from the local execution, locations resolved through locName.
func renderJSON(t *testing.T, rep *race2d.Report, tasks int, locName func(race2d.Addr) string) string {
	t.Helper()
	rep.Tasks = tasks
	rep.AddrName = locName
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRemoteMatchesLocalCorpus checks the acceptance bar: for every
// corpus program, the remote Report (streamed through a client session)
// renders byte-identical to the in-process one.
func TestRemoteMatchesLocalCorpus(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	files, err := filepath.Glob(filepath.Join("..", "..", "cmd", "race2d", "testdata", "*.fj"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs: %v", err)
	}
	for _, file := range files {
		for _, engine := range []race2d.Engine{race2d.Engine2D, race2d.EngineVC, race2d.EngineFastTrack} {
			t.Run(filepath.Base(file)+"/"+engine.String(), func(t *testing.T) {
				data, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				p, err := prog.Parse(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}

				d := race2d.NewEngineSink(engine)
				localRes, err := prog.Exec(p, d)
				if err != nil {
					t.Fatal(err)
				}
				local := renderJSON(t, d.Report(), localRes.Tasks, localRes.LocName)

				sess, err := client.Dial(addr, client.WithEngine(engine.String()))
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				remoteRes, err := prog.Exec(p, sess)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := sess.Finish()
				if err != nil {
					t.Fatal(err)
				}
				remote := renderJSON(t, rep, remoteRes.Tasks, remoteRes.LocName)

				if local != remote {
					t.Errorf("remote report differs from local\nlocal:\n%s\nremote:\n%s", local, remote)
				}
			})
		}
	}
}

// TestRemoteMatchesLocalRandom drives the parity bar across 20 seeded
// random fork-join workloads.
func TestRemoteMatchesLocalRandom(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	for seed := int64(1); seed <= 20; seed++ {
		c := workload.ForkJoin{
			Seed:     seed,
			Ops:      1500,
			MaxDepth: 5,
			Mix:      workload.Mix{Locs: 24, ReadFrac: 0.6},
		}

		d := race2d.NewEngineSink(race2d.Engine2D)
		localTasks, err := c.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		local := renderJSON(t, d.Report(), localTasks, nil)

		sess, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		remoteTasks, err := c.Run(sess)
		if err != nil {
			sess.Close()
			t.Fatal(err)
		}
		rep, err := sess.Finish()
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		remote := renderJSON(t, rep, remoteTasks, nil)

		if local != remote {
			t.Errorf("seed %d: remote report differs from local\nlocal:\n%s\nremote:\n%s", seed, local, remote)
		}
	}
}

// streamRacyPrefix sends n write events on one task (plus the opening
// begin), flushed to the wire.
func streamRacyPrefix(t *testing.T, sess *client.Session, n int) {
	t.Helper()
	sess.Event(fj.Event{Kind: fj.EvBegin, T: 0})
	for i := 0; i < n; i++ {
		sess.Event(fj.Event{Kind: fj.EvWrite, T: 0, Loc: race2d.Addr(1 + i%8)})
	}
	if err := sess.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// lateListener hands the server its connection only once release is
// closed, as if the accept loop were descheduled between Accept
// returning and serving the connection. accepted is closed when the
// connection is in hand.
type lateListener struct {
	net.Listener
	accepted, release chan struct{}
}

func (l *lateListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	close(l.accepted)
	<-l.release
	return c, nil
}

// TestShutdownClosesLateAcceptedConn: a connection the accept loop
// holds while Shutdown waits must be closed unserved. Serving it would
// add to the WaitGroup Shutdown is waiting on; when that Add landed as
// the Wait woke, raced panicked ("sync: WaitGroup is reused before
// previous Wait has returned"), which a stream benchmark run hit in
// the set-up loop's start, probe, shut down cycle.
func TestShutdownClosesLateAcceptedConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	late := &lateListener{Listener: ln, accepted: make(chan struct{}), release: make(chan struct{})}
	srv := server.New(server.Config{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(late) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A whole handshake, so a server that did serve the connection
	// would answer it.
	if err := wire.WriteMagic(conn); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(wire.Hello{Engine: "2d"})); err != nil {
		t.Fatal(err)
	}
	<-late.accepted
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	close(late.release)
	if err := <-served; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve returned %v, want net.ErrClosed", err)
	}
	// Closed with the handshake unread, the connection ends in EOF or
	// a reset; a served one answers, and a leaked one times out.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ne net.Error
	if n, err := conn.Read(make([]byte, 64)); n != 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection accepted during Shutdown read %d bytes (%v), want it closed unserved", n, err)
	}
}

// TestShutdownDeliversPartialReport checks graceful drain: a session
// interrupted mid-stream still receives a coherent Report for the
// prefix the server consumed, flagged partial.
func TestShutdownDeliversPartialReport(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	sess, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const sent = 2000
	streamRacyPrefix(t, sess, sent)
	// Wait until the server has demonstrably ingested something, so the
	// partial report is non-trivial.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().EventsBuffered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never ingested any events")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let the drain reach the session

	rep, err := sess.Finish()
	if !errors.Is(err, client.ErrPartial) {
		t.Fatalf("Finish err = %v, want ErrPartial", err)
	}
	if rep == nil {
		t.Fatal("partial Finish returned no report")
	}
	if got := rep.Stats.MemOps(); got == 0 || got > sent {
		t.Fatalf("partial report covers %d mem ops, want 1..%d", got, sent)
	}
	if rep.Engine != race2d.Engine2D {
		t.Fatalf("partial report engine = %v", rep.Engine)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestSessionSlabsFitBlocks pins each session's decode slab to the
// wire's block size. Blocks carry wire.DefaultBlockEvents events and
// decode by append, so slabs sized for fj.DefaultBatchSize (256) regrew
// in ~1.25× steps on every session's first blocks. With those slabs a 4000-event
// session cost the process (client and server) 1,035,352 bytes; with
// block-sized slabs, 663,976. The fewest bytes over five sessions
// against a warmed-up server count.
func TestSessionSlabsFitBlocks(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	run := func() {
		sess, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		streamRacyPrefix(t, sess, 3999)
		if _, err := sess.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up the server and the client's lazily built state
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	const limit = 1035352 - 100<<10 // at least 100 KiB under regrowing slabs
	if best > limit {
		t.Fatalf("a 4000-event session allocated %d bytes, want <= %d", best, limit)
	}
}

// TestSessionCap checks admission control: connections beyond
// MaxSessions are refused with an explanatory error, and a slot frees
// up when a session ends.
func TestSessionCap(t *testing.T) {
	srv, addr := startServer(t, server.Config{MaxSessions: 1})
	first, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	if _, err := client.Dial(addr); err == nil || !strings.Contains(err.Error(), "session limit") {
		t.Fatalf("second dial: err = %v, want session-limit refusal", err)
	}
	if got := srv.Stats().SessionsRejected; got != 1 {
		t.Fatalf("SessionsRejected = %d, want 1", got)
	}

	first.Event(fj.Event{Kind: fj.EvBegin, T: 0})
	first.Event(fj.Event{Kind: fj.EvHalt, T: 0})
	if _, err := first.Finish(); err != nil {
		t.Fatal(err)
	}
	first.Close()

	// The slot must come back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		next, err := client.Dial(addr)
		if err == nil {
			next.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIdleEviction checks the janitor: a session that stops sending
// frames is evicted and told so.
func TestIdleEviction(t *testing.T) {
	srv, addr := startServer(t, server.Config{IdleTimeout: 50 * time.Millisecond})
	sess, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	time.Sleep(300 * time.Millisecond)
	if _, err := sess.Finish(); err == nil || !strings.Contains(err.Error(), "evicted") {
		t.Fatalf("Finish after idling: err = %v, want eviction error", err)
	}
	if got := srv.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
}

// TestObservabilityEndpoints checks /healthz and /metrics.
func TestObservabilityEndpoints(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	sess, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	streamRacyPrefix(t, sess, 100)
	sess.Event(fj.Event{Kind: fj.EvHalt, T: 0})
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for path, want := range map[string]string{
		"/healthz": `"status":"ok"`,
		"/metrics": "raced_sessions_total 1",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(body.String(), want) {
			t.Fatalf("%s: status %d body %q, want %q", path, resp.StatusCode, body.String(), want)
		}
	}
	st := srv.Stats()
	if st.Frames == 0 || st.WireBytes == 0 || st.EventsBuffered == 0 {
		t.Fatalf("wire counters not populated: %+v", st)
	}
}

// TestEngineSelection checks that the Hello engine field selects the
// server-side detector.
func TestEngineSelection(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	sess, err := client.Dial(addr, client.WithEngine("fasttrack"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.Event(fj.Event{Kind: fj.EvBegin, T: 0})
	sess.Event(fj.Event{Kind: fj.EvHalt, T: 0})
	rep, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != race2d.EngineFastTrack {
		t.Fatalf("engine = %v, want fasttrack", rep.Engine)
	}

	if _, err := client.Dial(addr, client.WithEngine("no-such-engine")); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestConcurrentSessions checks isolation: K concurrent sessions each
// get their own verdict.
func TestConcurrentSessions(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	const k = 8
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func(seed int64) {
			c := workload.ForkJoin{
				Seed:     seed,
				Ops:      800,
				MaxDepth: 4,
				Mix:      workload.Mix{Locs: 16, ReadFrac: 0.5},
			}
			d := race2d.NewEngineSink(race2d.Engine2D)
			if _, err := c.Run(d); err != nil {
				errs <- err
				return
			}
			sess, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			if _, err := c.Run(sess); err != nil {
				errs <- err
				return
			}
			rep, err := sess.Finish()
			if err != nil {
				errs <- err
				return
			}
			if rep.Count != d.Count() || rep.Stats.MemOps() != d.Stats().MemOps() {
				errs <- fmt.Errorf("seed %d: remote verdict %d races/%d ops, local %d/%d",
					seed, rep.Count, rep.Stats.MemOps(), d.Count(), d.Stats().MemOps())
				return
			}
			errs <- nil
		}(int64(100 + i))
	}
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestNegativeTaskIDsEndSession: a session whose stream names a
// negative task id — a begin(-5), or a join of task -3 — ends with an
// Error frame instead of crashing the server, and the next valid
// session still gets a Report byte-identical to the local one.
func TestNegativeTaskIDsEndSession(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	for _, c := range []struct {
		name   string
		events []fj.Event
	}{
		{"begin(-5)", []fj.Event{{Kind: fj.EvBegin, T: -5}}},
		{"join(-3)", []fj.Event{{Kind: fj.EvBegin, T: 0}, {Kind: fj.EvJoin, T: 0, U: -3}}},
	} {
		sess, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range c.events {
			sess.Event(ev)
		}
		_, err = sess.Finish()
		sess.Close()
		if err == nil || !strings.Contains(err.Error(), "server error") || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%s: Finish = %v, want the server's out-of-range Error", c.name, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Live() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d session(s) still live after the refusals", srv.Live())
		}
		time.Sleep(5 * time.Millisecond)
	}

	c := workload.ForkJoin{Seed: 1, Ops: 1500, MaxDepth: 5, Mix: workload.Mix{Locs: 24, ReadFrac: 0.6}}
	d := race2d.NewEngineSink(race2d.Engine2D)
	localTasks, err := c.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	local := renderJSON(t, d.Report(), localTasks, nil)
	sess, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	remoteTasks, err := c.Run(sess)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if remote := renderJSON(t, rep, remoteTasks, nil); remote != local {
		t.Fatalf("report after the refusals differs from local\nlocal:\n%s\nremote:\n%s", local, remote)
	}
}
