package cluster_test

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/fj"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"

	race2d "repro"
)

// backend is one raced instance under test: the wire server plus a
// real HTTP health listener, so the gateway's prober sees exactly what
// it would see in production (including the 503 drain signal).
type backend struct {
	srv    *server.Server
	addr   string
	health string
	hsrv   *http.Server
}

func startBackend(t *testing.T, cfg server.Config) *backend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cfg)
	go srv.Serve(ln)
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hsrv := &http.Server{Handler: srv.Handler()}
	go hsrv.Serve(hln)
	b := &backend{srv: srv, addr: ln.Addr().String(), health: hln.Addr().String(), hsrv: hsrv}
	t.Cleanup(func() {
		b.hsrv.Close()
		b.srv.Close()
	})
	return b
}

// startGateway boots a gateway over the backends with test-speed
// probing and returns it with its serving address. wrap, if non-nil,
// decorates the gateway's client-facing listener (fault injection).
func startGateway(t *testing.T, backends []*backend, wrap func(net.Listener) net.Listener) (*cluster.Gateway, string) {
	t.Helper()
	bs := make([]cluster.Backend, len(backends))
	for i, b := range backends {
		bs[i] = cluster.Backend{Addr: b.addr, Health: b.health}
	}
	gw, err := cluster.NewGateway(cluster.Config{
		Backends:      bs,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  time.Second,
		ProbeFails:    2,
		DialTimeout:   5 * time.Second,
		SessionTTL:    time.Minute,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	go gw.Serve(ln)
	t.Cleanup(func() { gw.Close() })
	return gw, ln.Addr().String()
}

// renderJSON renders a report exactly the way cmd/race2d -json does.
func renderJSON(t *testing.T, rep *race2d.Report, tasks int) string {
	t.Helper()
	rep.Tasks = tasks
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// localVerdict runs the workload in-process for the parity baseline.
func localVerdict(t *testing.T, c workload.ForkJoin) string {
	t.Helper()
	d := race2d.NewEngineSink(race2d.Engine2D)
	tasks, err := c.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	return renderJSON(t, d.Report(), tasks)
}

func testWorkload(seed int64, ops int) workload.ForkJoin {
	return workload.ForkJoin{
		Seed:     seed,
		Ops:      ops,
		MaxDepth: 4,
		Mix:      workload.Mix{Locs: 16, ReadFrac: 0.6},
	}
}

// migrationOpts is the client shape every migration test needs:
// RetainAll (cross-backend migration replays the whole stream) and
// fast reconnects.
func migrationOpts() []client.Option {
	return []client.Option{
		client.WithFrameEvents(64),
		client.WithDialTimeout(2 * time.Second),
		client.WithFinishTimeout(60 * time.Second),
		client.WithHeartbeat(50*time.Millisecond, 3),
		client.WithMaxAttempts(200),
		client.WithBackoff(time.Millisecond, 20*time.Millisecond),
		client.WithRetainAll(),
	}
}

// TestGatewayRoutesSessionsWithParity drives several sessions through
// the gateway and checks (a) every verdict is byte-identical to the
// local run, (b) the fleet — not one backend — carried them, (c) the
// gateway counted the placements.
func TestGatewayRoutesSessionsWithParity(t *testing.T) {
	backends := []*backend{
		startBackend(t, server.Config{}),
		startBackend(t, server.Config{}),
		startBackend(t, server.Config{}),
	}
	gw, addr := startGateway(t, backends, nil)

	const sessions = 9
	for i := 0; i < sessions; i++ {
		c := testWorkload(int64(100+i), 600)
		local := localVerdict(t, c)
		// Distinct route keys spread the sessions deterministically.
		sess, err := client.Dial(addr, client.WithRouteKey(uint64(1+i)), client.WithFrameEvents(64))
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		tasks, err := c.Run(sess)
		if err != nil {
			sess.Close()
			t.Fatalf("session %d: %v", i, err)
		}
		rep, err := sess.Finish()
		sess.Close()
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if remote := renderJSON(t, rep, tasks); remote != local {
			t.Errorf("session %d: gateway changed the verdict\nlocal:\n%s\nremote:\n%s", i, local, remote)
		}
	}

	st := gw.Stats()
	if st.Routed != sessions {
		t.Errorf("gateway routed %d sessions, want %d", st.Routed, sessions)
	}
	var total uint64
	spread := 0
	for _, n := range st.RoutedBy {
		total += n
		if n > 0 {
			spread++
		}
	}
	if total != sessions {
		t.Errorf("per-backend placements sum to %d, want %d (%v)", total, sessions, st.RoutedBy)
	}
	if spread < 2 {
		t.Errorf("all sessions landed on one backend: %v", st.RoutedBy)
	}
	var served uint64
	for _, b := range backends {
		served += b.srv.Stats().Sessions
	}
	if served != sessions {
		t.Errorf("backends served %d sessions total, want %d", served, sessions)
	}
	if st.Frames == 0 || st.Bytes == 0 {
		t.Errorf("relay counters empty: %+v", st)
	}
}

// TestGatewayRouteKeyPinsBackend: sessions sharing a RouteKey must land
// on the same backend.
func TestGatewayRouteKeyPinsBackend(t *testing.T) {
	backends := []*backend{
		startBackend(t, server.Config{}),
		startBackend(t, server.Config{}),
		startBackend(t, server.Config{}),
	}
	_, addr := startGateway(t, backends, nil)

	countSessions := func() []uint64 {
		out := make([]uint64, len(backends))
		for i, b := range backends {
			out[i] = b.srv.Stats().Sessions
		}
		return out
	}
	for round := 0; round < 3; round++ {
		before := countSessions()
		sess, err := client.Dial(addr, client.WithRouteKey(777))
		if err != nil {
			t.Fatal(err)
		}
		c := testWorkload(1, 200)
		if _, err := c.Run(sess); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Finish(); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		after := countSessions()
		grew := -1
		for i := range after {
			if after[i] != before[i] {
				if grew != -1 {
					t.Fatalf("round %d: more than one backend grew: %v -> %v", round, before, after)
				}
				grew = i
			}
		}
		if grew == -1 {
			t.Fatalf("round %d: no backend saw the session", round)
		}
		if round == 0 {
			// Rotate so the pinned backend is index 0 for later rounds.
			backends[0], backends[grew] = backends[grew], backends[0]
		} else if grew != 0 {
			t.Errorf("round %d: RouteKey 777 landed on backend %d, not the pinned one", round, grew)
		}
	}
}

// TestGatewayResumeSameBackend severs the client<->gateway transport
// exactly once mid-stream: the client reconnects through the gateway
// with its resume token and must land back on its home backend, where
// the ordinary bounded-window resume applies (no replay-from-zero).
func TestGatewayResumeSameBackend(t *testing.T) {
	backends := []*backend{
		startBackend(t, server.Config{ResumeWindow: 10 * time.Second}),
		startBackend(t, server.Config{ResumeWindow: 10 * time.Second}),
	}
	gw, addr := startGateway(t, backends, func(ln net.Listener) net.Listener {
		return faults.New(faults.Config{Seed: 11, Classes: faults.Reset, Every: 5, MaxFaults: 1}).Listener(ln)
	})

	c := testWorkload(11, 1000)
	local := localVerdict(t, c)
	sess, err := client.Dial(addr, migrationOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tasks, err := c.Run(sess)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Finish()
	if err != nil {
		t.Fatalf("Finish across a severed gateway transport: %v", err)
	}
	if remote := renderJSON(t, rep, tasks); remote != local {
		t.Errorf("resume through gateway changed the verdict\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	var resumes uint64
	for _, b := range backends {
		resumes += b.srv.Stats().Resumes
	}
	if st := gw.Stats(); st.Resumed == 0 && resumes == 0 {
		t.Errorf("no resume was recorded anywhere (gateway %+v)", st)
	}
	var sessions uint64
	for _, b := range backends {
		sessions += b.srv.Stats().Sessions
	}
	if sessions != 1 {
		t.Errorf("fleet saw %d sessions; a same-backend resume should not re-create the session", sessions)
	}
}

// findHome returns the index of the backend carrying live sessions.
func findHome(t *testing.T, backends []*backend) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i, b := range backends {
			if b.srv.Live() > 0 {
				return i
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no backend ever saw the session")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drainHome starts a graceful drain of b in the background and returns
// once b has retired every live session: the observable point where the
// home session has been cut short, so whatever the client sends next
// must migrate. Sending earlier races the drain — a Finish read before
// the drain reaches the session completes it on its home backend, which
// is correct but is not the migration under test. The returned channel
// closes when Shutdown returns.
func drainHome(t *testing.T, b *backend) <-chan struct{} {
	t.Helper()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.srv.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.srv.Live() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the draining backend never retired its session")
		}
		time.Sleep(time.Millisecond)
	}
	return drained
}

// TestGatewayMigratesOnBackendDeath is the tentpole acceptance test:
// SIGKILL-equivalent loss of the session's home backend mid-stream.
// The gateway must detect the death, re-route the session's reconnect
// to a surviving backend, and the RetainAll replay must land the
// byte-identical verdict.
func TestGatewayMigratesOnBackendDeath(t *testing.T) {
	backends := []*backend{
		startBackend(t, server.Config{}),
		startBackend(t, server.Config{}),
	}
	gw, addr := startGateway(t, backends, nil)

	c := testWorkload(23, 2000)
	local := localVerdict(t, c)
	sess, err := client.Dial(addr, migrationOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Stream roughly half, then flush so the home backend demonstrably
	// holds state the migration must not lose.
	events := workloadEvents(t, c)
	half := len(events) / 2
	sess.EventBatch(events[:half])
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	home := findHome(t, backends)
	backends[home].hsrv.Close()
	backends[home].srv.Close() // abrupt: sessions, tokens, reports all gone

	sess.EventBatch(events[half:])
	rep, err := sess.Finish()
	if err != nil {
		t.Fatalf("Finish across backend death: %v", err)
	}
	if remote := renderJSON(t, rep, localTaskCount(t, c)); remote != local {
		t.Errorf("migration changed the verdict\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	survivor := 1 - home
	if got := backends[survivor].srv.Stats().Sessions; got == 0 {
		t.Error("surviving backend never saw the migrated session")
	}
	if st := gw.Stats(); st.Reroutes == 0 {
		t.Errorf("gateway counted no reroutes: %+v", st)
	}
	if st := sess.Stats(); st.Reconnects == 0 || st.Resends == 0 {
		t.Errorf("client did not reconnect+replay: %+v", st)
	}
}

// TestGatewayMigratesOnDrain: the graceful variant — the home backend
// drains (SIGTERM-equivalent), its /healthz turns 503, and the gateway
// must detach the in-flight session so it migrates and still yields the
// full (not partial) verdict.
func TestGatewayMigratesOnDrain(t *testing.T) {
	backends := []*backend{
		startBackend(t, server.Config{}),
		startBackend(t, server.Config{}),
	}
	gw, addr := startGateway(t, backends, nil)

	c := testWorkload(31, 2000)
	local := localVerdict(t, c)
	sess, err := client.Dial(addr, migrationOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	events := workloadEvents(t, c)
	half := len(events) / 2
	sess.EventBatch(events[:half])
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	home := findHome(t, backends)
	// Graceful drain; /healthz flips to 503 while the HTTP listener stays
	// up — exactly raced's SIGTERM behavior.
	drained := drainHome(t, backends[home])

	sess.EventBatch(events[half:])
	rep, err := sess.Finish()
	if err != nil {
		t.Fatalf("Finish across backend drain: %v (want the migrated full verdict, not a partial)", err)
	}
	if remote := renderJSON(t, rep, localTaskCount(t, c)); remote != local {
		t.Errorf("drain migration changed the verdict\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	if st := gw.Stats(); st.Detaches == 0 {
		t.Errorf("gateway never detached the draining backend's session: %+v", st)
	}
	<-drained
}

// TestGatewayRefusesRetiredVersions: the gateway makes the same version
// decision as raced (wire.ReadMagic) — a retired or unknown version
// byte is answered at the edge with the handshake-refused prefix and
// the wire.ErrVersion text, and no backend connection is spent on it.
func TestGatewayRefusesRetiredVersions(t *testing.T) {
	b := startBackend(t, server.Config{})
	_, addr := startGateway(t, []*backend{b}, nil)
	hello := wire.AppendFrame(nil, wire.FrameHello, wire.EncodeHelloV3(wire.Hello{Engine: "2d"}))
	for _, version := range []byte{1, 2, wire.Version + 1} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(append([]byte{'R', 'D', 'S', version}, hello...)); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := wire.ReadFrame(conn, nil)
		conn.Close()
		if err != nil || ft != wire.FrameError {
			t.Fatalf("version %d: got %v (%v), want an Error frame", version, ft, err)
		}
		if text := string(payload); !strings.HasPrefix(text, wire.HandshakeRefusedPrefix) ||
			!strings.Contains(text, wire.ErrVersion.Error()) {
			t.Errorf("version %d: refusal %q, want the handshake prefix and the ErrVersion text", version, text)
		}
	}
	if n := b.srv.Stats().Sessions; n != 0 {
		t.Errorf("backend saw %d sessions; version refusals must stay at the edge", n)
	}
}

// TestGatewayRefusalsRetryable: with no live backend the gateway must
// refuse in the retryable handshake class — a rolling restart should
// not terminally kill clients — and /healthz must say so.
func TestGatewayNoBackends(t *testing.T) {
	b := startBackend(t, server.Config{})
	gw, addr := startGateway(t, []*backend{b}, nil)
	b.hsrv.Close()
	b.srv.Close()

	// Wait for the prober to notice.
	deadline := time.Now().Add(5 * time.Second)
	for gw.Ring().UpCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the dead backend down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, err := client.Dial(addr,
		client.WithMaxAttempts(2),
		client.WithBackoff(time.Millisecond, 2*time.Millisecond),
		client.WithDialTimeout(time.Second))
	if err == nil {
		t.Fatal("dial succeeded with no backends")
	}
	// The retryable class surfaces as retry-budget exhaustion, not a
	// terminal server refusal.
	if !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("refusal was terminal: %v", err)
	}

	// Gateway healthz reports the outage.
	hln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatal(lerr)
	}
	hsrv := &http.Server{Handler: gw.Handler()}
	go hsrv.Serve(hln)
	defer hsrv.Close()
	resp, herr := http.Get("http://" + hln.Addr().String() + "/healthz")
	if herr != nil {
		t.Fatal(herr)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with no backends = %d, want 503", resp.StatusCode)
	}
}

// collectEvents materializes an event stream so tests can split it
// around a mid-stream fault.
type collectEvents struct{ events []fj.Event }

func (c *collectEvents) Event(e fj.Event) { c.events = append(c.events, e) }

func workloadEvents(t *testing.T, c workload.ForkJoin) []fj.Event {
	t.Helper()
	var sink collectEvents
	if _, err := c.Run(&sink); err != nil {
		t.Fatal(err)
	}
	return sink.events
}

// localTaskCount re-runs the workload locally just for its task count
// (renderJSON needs it).
func localTaskCount(t *testing.T, c workload.ForkJoin) int {
	t.Helper()
	d := race2d.NewEngineSink(race2d.Engine2D)
	tasks, err := c.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}
