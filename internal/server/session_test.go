package server_test

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fj"
	"repro/internal/server"
	"repro/internal/wire"

	race2d "repro"
)

// rawSession drives one session with wire frames alone, so no client
// goroutine runs: every goroutine the process gains belongs to the
// server.
type rawSession struct {
	t      *testing.T
	conn   net.Conn
	token  uint64
	enc    wire.BlockEncoder
	seq    uint64     // last block sent
	events []fj.Event // every event sent, in order
}

// dialRaw opens a fresh 2D session and reads its Welcome.
func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := wire.WriteMagic(conn); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(wire.Hello{Engine: "2d"})); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := wire.ReadFrame(conn, nil)
	if err != nil || ft != wire.FrameWelcome {
		t.Fatalf("handshake: %v frame %q (%v), want a Welcome", ft, payload, err)
	}
	w, err := wire.DecodeWelcomeV3(payload)
	if err != nil {
		t.Fatalf("welcome: %v", err)
	}
	return &rawSession{t: t, conn: conn, token: w.Token}
}

// sendBlock ships n events of task 0 — a begin first, if this is the
// session's first block — as the next EventsBlock, and returns its
// sequence number.
func (r *rawSession) sendBlock(n int) uint64 {
	r.t.Helper()
	start := len(r.events)
	if start == 0 {
		r.events = append(r.events, fj.Event{Kind: fj.EvBegin, T: 0})
	}
	for i := 0; len(r.events)-start < n; i++ {
		kind := fj.EvWrite
		if i%3 == 0 {
			kind = fj.EvRead
		}
		r.events = append(r.events, fj.Event{Kind: kind, T: 0, Loc: race2d.Addr(1 + (start+i)%16)})
	}
	r.seq++
	block := r.enc.AppendBlock(nil, r.seq, r.events[start:])
	if err := wire.WriteFrame(r.conn, wire.FrameEventsBlock, block); err != nil {
		r.t.Fatal(err)
	}
	return r.seq
}

// awaitAck reads Ack frames until one names seq.
func (r *rawSession) awaitAck(seq uint64) {
	r.t.Helper()
	for {
		ft, payload, err := wire.ReadFrame(r.conn, nil)
		if err != nil || ft != wire.FrameAck {
			r.t.Fatalf("awaiting ack %d: %v frame %q (%v)", seq, ft, payload, err)
		}
		got, err := wire.DecodeAck(payload)
		if err != nil {
			r.t.Fatal(err)
		}
		if got == seq {
			return
		}
	}
}

// readReport reads frames up to the Report and returns its flags and
// JSON body.
func (r *rawSession) readReport() (uint64, []byte) {
	r.t.Helper()
	for {
		ft, payload, err := wire.ReadFrame(r.conn, nil)
		if err != nil {
			r.t.Fatalf("awaiting the report: %v", err)
		}
		switch ft {
		case wire.FrameAck, wire.FrameHeartbeat:
			continue
		case wire.FrameReport:
			flags, body, err := wire.DecodeReport(payload)
			if err != nil {
				r.t.Fatal(err)
			}
			return flags, body
		default:
			r.t.Fatalf("got %v frame %q, want a Report", ft, payload)
		}
	}
}

// serverGoroutines counts the live goroutines running server code.
// Counting by stack, not runtime.NumGoroutine, keeps goroutines of the
// test runner and of earlier tests out of the count.
func serverGoroutines() (int, string) {
	buf := make([]byte, 1<<20)
	all := string(buf[:runtime.Stack(buf, true)])
	n := 0
	for _, g := range strings.Split(all, "\n\n") {
		if strings.Contains(g, "repro/internal/server.") {
			n++
		}
	}
	return n, all
}

// awaitServerGoroutines polls until exactly want goroutines run server
// code.
func awaitServerGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, all := serverGoroutines()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d server goroutines live, want %d\n%s", what, n, want, all)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitLive polls until the server holds exactly want live sessions.
func awaitLive(t *testing.T, srv *server.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Live() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d live sessions, want %d", srv.Live(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOneGoroutinePerSession: a live session costs the server exactly
// one goroutine, the one reading its connection, and an Ack means
// detected — a drain right after an Ack reports every acked event.
func TestOneGoroutinePerSession(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	const idle = 2 // Serve's accept loop and the janitor
	awaitServerGoroutines(t, idle, "idle server")

	const sessions, blockEvents = 8, 300
	raws := make([]*rawSession, sessions)
	for i := range raws {
		raws[i] = dialRaw(t, addr)
		raws[i].awaitAck(raws[i].sendBlock(blockEvents))
	}
	awaitServerGoroutines(t, idle+sessions, "8 sessions, each past its first Ack")

	// One session sends more blocks; the Ack of the last one is all it
	// waits for before the server is told to drain.
	r := raws[0]
	var last uint64
	for k := 0; k < 6; k++ {
		last = r.sendBlock(blockEvents)
	}
	r.awaitAck(last)

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown <- srv.Shutdown(ctx)
	}()
	for i, r := range raws {
		flags, body := r.readReport()
		r.conn.Close()
		if flags&wire.FlagPartial == 0 {
			t.Errorf("session %d: drained Report not flagged partial", i)
		}
		var rep race2d.Report
		if err := rep.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
		memops := uint64(0)
		for _, e := range r.events {
			if e.Kind == fj.EvRead || e.Kind == fj.EvWrite {
				memops++
			}
		}
		if got := rep.Stats.Reads + rep.Stats.Writes; got != memops {
			t.Errorf("session %d: partial Report covers %d reads+writes, want the %d acked", i, got, memops)
		}
		// The verdict is the local detector's over the acked prefix.
		d := race2d.NewEngineSink(race2d.Engine2D)
		for _, e := range r.events {
			d.Event(e)
		}
		want, err := d.Report().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("session %d: partial Report differs from local\nremote: %s\nlocal:  %s", i, body, want)
		}
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := srv.Live(); n != 0 {
		t.Fatalf("%d sessions live after Shutdown", n)
	}
}

// TestAbandonedSuspendedSession: a session whose connection died is
// suspended with no goroutine of its own, and the janitor abandons it
// once its resume window passes — its slot frees, its token stops
// resuming, and nothing is left running.
func TestAbandonedSuspendedSession(t *testing.T) {
	srv, addr := startServer(t, server.Config{ResumeWindow: 100 * time.Millisecond, MaxSessions: 1})
	const idle = 2
	awaitServerGoroutines(t, idle, "idle server")

	r := dialRaw(t, addr)
	r.awaitAck(r.sendBlock(100))
	r.conn.Close()
	awaitServerGoroutines(t, idle, "suspended session")
	awaitLive(t, srv, 0)

	// The slot is free again: MaxSessions is 1.
	fresh := dialRaw(t, addr)
	fresh.awaitAck(fresh.sendBlock(10))
	if err := wire.WriteFrame(fresh.conn, wire.FrameFinish, nil); err != nil {
		t.Fatal(err)
	}
	if flags, _ := fresh.readReport(); flags != 0 {
		t.Fatalf("fresh session's Report flags = %d, want 0", flags)
	}
	fresh.conn.Close()
	awaitLive(t, srv, 0)

	// The abandoned session's token no longer resumes.
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteMagic(conn); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(wire.Hello{Engine: "2d", Token: r.token})); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := wire.ReadFrame(conn, nil)
	if err != nil || ft != wire.FrameError || !strings.Contains(string(payload), wire.ErrUnknownResume.Error()) {
		t.Fatalf("resume of an abandoned session: %v frame %q (%v), want the unknown-resume Error", ft, payload, err)
	}
}

// TestCloseWithSuspendedSession: Close discards a suspended session
// and leaves no goroutine behind.
func TestCloseWithSuspendedSession(t *testing.T) {
	srv, addr := startServer(t, server.Config{ResumeWindow: time.Minute})
	const idle = 2
	awaitServerGoroutines(t, idle, "idle server")

	r := dialRaw(t, addr)
	r.awaitAck(r.sendBlock(100))
	r.conn.Close()
	awaitServerGoroutines(t, idle, "suspended session")
	if n := srv.Live(); n != 1 {
		t.Fatalf("%d live sessions after the connection died, want the 1 suspended", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Live(); n != 0 {
		t.Fatalf("%d sessions live after Close", n)
	}
	awaitServerGoroutines(t, 0, "closed server")
}
