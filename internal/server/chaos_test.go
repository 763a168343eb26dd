package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/faults"
	"repro/internal/fj"
	"repro/internal/prog"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"

	race2d "repro"
)

// startChaosServer starts a raced server behind a fault-injecting
// listener: every accepted connection is perturbed on fcfg's schedule.
func startChaosServer(t *testing.T, cfg server.Config, fcfg faults.Config) (*server.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cfg)
	go srv.Serve(faults.New(fcfg).Listener(ln))
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// chaosOpts tunes the client for fault-heavy tests: small frames so
// sequencing is exercised, fast reconnects, and a budget generous
// enough that the injector's MaxFaults — not the client — decides when
// the weather clears.
func chaosOpts() []client.Option {
	return []client.Option{
		client.WithFrameEvents(64),
		// Corruption can garble a handshake into a silent stall (the
		// server blocks on a phantom length prefix); a short dial timeout
		// turns each such stall into a quick retry on loopback.
		client.WithDialTimeout(250 * time.Millisecond),
		client.WithFinishTimeout(30 * time.Second),
		client.WithWriteTimeout(2 * time.Second),
		// A fast heartbeat keeps the tests quick: a corrupted length
		// prefix can leave a receiver blocked waiting for phantom bytes,
		// and the next heartbeat (or its ack) is what unsticks it.
		client.WithHeartbeat(50*time.Millisecond, 2),
		client.WithMaxAttempts(200),
		client.WithBackoff(time.Millisecond, 20*time.Millisecond),
		client.WithRetainAll(),
	}
}

// TestChaosParity is the fault-tolerance acceptance bar: for every
// fault class, across 20 seeded workloads each, a session streamed
// through an aggressively faulty transport must produce a Report
// byte-identical to the undisturbed local run. The injector's fault
// budget guarantees the weather eventually clears, so Finish must
// return a clean (non-partial) verdict.
func TestChaosParity(t *testing.T) {
	classes := []faults.Class{faults.Delay, faults.Corrupt, faults.Partial, faults.Drop, faults.Reset, faults.All}
	for _, class := range classes {
		class := class
		t.Run(class.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 20; seed++ {
				c := workload.ForkJoin{
					Seed:     seed,
					Ops:      600,
					MaxDepth: 4,
					Mix:      workload.Mix{Locs: 16, ReadFrac: 0.6},
				}
				d := race2d.NewEngineSink(race2d.Engine2D)
				localTasks, err := c.Run(d)
				if err != nil {
					t.Fatal(err)
				}
				local := renderJSON(t, d.Report(), localTasks, nil)

				_, addr := startChaosServer(t,
					server.Config{ResumeWindow: 10 * time.Second},
					faults.Config{Seed: seed, Classes: class, Every: 2, MaxFaults: 20, MaxDelay: 500 * time.Microsecond})
				sess, err := client.Dial(addr, chaosOpts()...)
				if err != nil {
					t.Fatalf("seed %d: dial through %v faults: %v", seed, class, err)
				}
				remoteTasks, err := c.Run(sess)
				if err != nil {
					sess.Close()
					t.Fatalf("seed %d: %v", seed, err)
				}
				rep, err := sess.Finish()
				sess.Close()
				if err != nil {
					t.Fatalf("seed %d: Finish under %v faults: %v", seed, class, err)
				}
				remote := renderJSON(t, rep, remoteTasks, nil)
				if local != remote {
					t.Errorf("seed %d: %v faults changed the verdict\nlocal:\n%s\nremote:\n%s",
						seed, class, local, remote)
				}
			}
		})
	}
}

// TestChaosParityCorpus replays every corpus program through an
// all-classes faulty transport and demands byte-identical reports.
func TestChaosParityCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "cmd", "race2d", "testdata", "*.fj"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs: %v", err)
	}
	for _, file := range files {
		for fseed := int64(1); fseed <= 3; fseed++ {
			t.Run(fmt.Sprintf("%s/fault-seed-%d", filepath.Base(file), fseed), func(t *testing.T) {
				data, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				p, err := prog.Parse(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				d := race2d.NewEngineSink(race2d.Engine2D)
				localRes, err := prog.Exec(p, d)
				if err != nil {
					t.Fatal(err)
				}
				local := renderJSON(t, d.Report(), localRes.Tasks, localRes.LocName)

				_, addr := startChaosServer(t,
					server.Config{ResumeWindow: 10 * time.Second},
					faults.Config{Seed: fseed, Classes: faults.All, Every: 2, MaxFaults: 15, MaxDelay: 500 * time.Microsecond})
				sess, err := client.Dial(addr, chaosOpts()...)
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
					t.Errorf("faults changed the verdict\nlocal:\n%s\nremote:\n%s", local, remote)
				}
			})
		}
	}
}

// TestRetryBudgetExhausted checks the circuit breaker: when the server
// vanishes for good, Finish must come back with an error wrapping
// ErrPartial — never hang.
func TestRetryBudgetExhausted(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	sess, err := client.Dial(addr,
		client.WithMaxAttempts(3),
		client.WithBackoff(time.Millisecond, 5*time.Millisecond),
		client.WithFinishTimeout(10*time.Second),
		client.WithRetainAll())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	streamRacyPrefix(t, sess, 100)
	srv.Close() // the server is gone and never coming back

	done := make(chan struct{})
	var rep *race2d.Report
	var ferr error
	go func() {
		rep, ferr = sess.Finish()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Finish hung after the retry budget should have been exhausted")
	}
	if !errors.Is(ferr, client.ErrPartial) {
		t.Fatalf("Finish err = %v, want ErrPartial", ferr)
	}
	if rep != nil {
		t.Fatalf("no server ever reported, yet Finish returned %+v", rep)
	}
	if st := sess.Stats(); st.Reconnects == 0 && st.Resends == 0 {
		t.Log("note: circuit opened before any reconnect succeeded (expected)")
	}
}

// TestServerRestartResume checks the strongest recovery mode: the
// server process is torn down completely (all session state lost) and a
// fresh one binds the same address; a RetainAll client must notice its
// resume token is unknown, open a fresh session, replay the entire
// stream, and land on the byte-identical verdict.
func TestServerRestartResume(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv1 := server.New(server.Config{})
	go srv1.Serve(ln)

	c := workload.ForkJoin{
		Seed:     42,
		Ops:      1200,
		MaxDepth: 5,
		Mix:      workload.Mix{Locs: 24, ReadFrac: 0.6},
	}
	d := race2d.NewEngineSink(race2d.Engine2D)
	localTasks, err := c.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	local := renderJSON(t, d.Report(), localTasks, nil)

	sess, err := client.Dial(addr,
		client.WithFrameEvents(64),
		client.WithFinishTimeout(30*time.Second),
		client.WithMaxAttempts(100),
		client.WithBackoff(time.Millisecond, 20*time.Millisecond),
		client.WithRetainAll())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	remoteTasks, err := c.Run(sess)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	// Kill the server outright — sessions, tokens, reports, all gone —
	// and restart on the same address.
	srv1.Close()
	var ln2 net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv2 := server.New(server.Config{})
	go srv2.Serve(ln2)
	t.Cleanup(func() { srv2.Close() })

	rep, err := sess.Finish()
	if err != nil {
		t.Fatalf("Finish across server restart: %v", err)
	}
	remote := renderJSON(t, rep, remoteTasks, nil)
	if local != remote {
		t.Errorf("restart changed the verdict\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	st := sess.Stats()
	if st.Reconnects == 0 {
		t.Error("client claims it never reconnected across the restart")
	}
	if st.Resends == 0 {
		t.Error("client claims it never resent the stream into the fresh session")
	}
	if got := srv2.Stats().Sessions; got != 1 {
		t.Errorf("restarted server saw %d sessions, want 1", got)
	}
}

// TestResumeAfterConnKill exercises token resume directly: exactly one
// connection reset, injected deterministically mid-stream, severs the
// transport while the server-side session survives suspended. The
// client must reconnect with its token and land on the right verdict,
// and both sides must count the recovery.
func TestResumeAfterConnKill(t *testing.T) {
	srv, addr := startChaosServer(t,
		server.Config{ResumeWindow: 10 * time.Second},
		faults.Config{Seed: 7, Classes: faults.Reset, Every: 5, MaxFaults: 1})
	c := workload.ForkJoin{
		Seed:     7,
		Ops:      1000,
		MaxDepth: 4,
		Mix:      workload.Mix{Locs: 16, ReadFrac: 0.5},
	}
	d := race2d.NewEngineSink(race2d.Engine2D)
	localTasks, err := c.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	local := renderJSON(t, d.Report(), localTasks, nil)

	sess, err := client.Dial(addr,
		client.WithFrameEvents(32),
		client.WithFinishTimeout(20*time.Second),
		client.WithMaxAttempts(50),
		client.WithBackoff(time.Millisecond, 10*time.Millisecond))
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
		t.Fatalf("Finish across a severed transport: %v", err)
	}
	remote := renderJSON(t, rep, remoteTasks, nil)
	if local != remote {
		t.Errorf("conn kill changed the verdict\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	if st := srv.Stats(); st.Resumes == 0 {
		t.Errorf("server stats count no resumes: %+v", st)
	}
	if st := sess.Stats(); st.Reconnects == 0 {
		t.Errorf("client stats count no reconnects: %+v", st)
	}
}

// TestResumeSupersedesStaleConnection: a client that reconnects before
// the server noticed its old connection die presents its resume token
// while the session is still attached to that connection. The resume
// must win — the old connection is closed and the session adopted at
// the next unacknowledged sequence — rather than be refused as an
// unknown token, which would cost a client without RetainAll its
// session.
func TestResumeSupersedesStaleConnection(t *testing.T) {
	srv, addr := startServer(t, server.Config{ResumeWindow: 10 * time.Second})
	tr := &fj.Trace{}
	if _, err := (workload.Pipeline{Stages: 3, Items: 20, Shared: true}).Run(tr); err != nil {
		t.Fatal(err)
	}
	half := len(tr.Events) / 2

	handshake := func(token uint64) (net.Conn, wire.Welcome) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := wire.WriteMagic(conn); err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(wire.Hello{Token: token})); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := wire.ReadFrame(conn, nil)
		if err != nil || ft != wire.FrameWelcome {
			t.Fatalf("handshake (token %x): got %v %q (%v), want a Welcome", token, ft, payload, err)
		}
		w, err := wire.DecodeWelcomeV3(payload)
		if err != nil {
			t.Fatal(err)
		}
		return conn, w
	}
	var enc wire.BlockEncoder
	sendEvents := func(conn net.Conn, seq uint64, events []fj.Event) {
		t.Helper()
		if err := wire.WriteFrame(conn, wire.FrameEventsBlock, enc.AppendBlock(nil, seq, events)); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := wire.ReadFrame(conn, nil)
		if ack, derr := wire.DecodeAck(payload); err != nil || ft != wire.FrameAck || derr != nil || ack != seq {
			t.Fatalf("events %d: got %v ack %d (%v)", seq, ft, ack, err)
		}
	}

	old, w1 := handshake(0)
	sendEvents(old, 1, tr.Events[:half])
	// The old connection is still open when the token comes back.
	conn, w2 := handshake(w1.Token)
	if w2.Session != w1.Session || w2.NextSeq != 2 {
		t.Fatalf("resume welcome %+v, want session %d at seq 2", w2, w1.Session)
	}
	if _, _, err := wire.ReadFrame(old, nil); err == nil {
		t.Fatal("the superseded connection is still being served")
	}
	sendEvents(conn, 2, tr.Events[half:])
	if err := wire.WriteFrame(conn, wire.FrameFinish, nil); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := wire.ReadFrame(conn, nil)
	if err != nil || ft != wire.FrameReport {
		t.Fatalf("report: %v %v", ft, err)
	}
	flags, body, err := wire.DecodeReport(payload)
	if err != nil || flags != 0 {
		t.Fatalf("report decode: flags=%d err=%v", flags, err)
	}
	d := race2d.NewEngineSink(race2d.Engine2D)
	tr.Replay(d)
	want, err := json.Marshal(d.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("resumed verdict differs\nlocal:  %s\nremote: %s", want, body)
	}
	if st := srv.Stats(); st.Sessions != 1 || st.Resumes != 1 {
		t.Errorf("sessions=%d resumes=%d, want one session resumed once", st.Sessions, st.Resumes)
	}
}

// TestHandshakeFailureModes checks that each malformed-handshake class
// is answered with a typed wire error and counted in the refusal
// metric: wrong magic, an unsupported version (including the retired
// versions 1 and 2), garbage instead of a Hello frame, and a
// structurally valid Hello frame with a truncated payload.
func TestHandshakeFailureModes(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	magicFor := func(version byte) []byte { return []byte{'R', 'D', 'S', version} }
	hello := wire.AppendFrame(nil, wire.FrameHello, wire.EncodeHello(wire.Hello{}))
	truncatedHello := wire.AppendFrame(nil, wire.FrameHello,
		wire.EncodeHello(wire.Hello{Engine: "fasttrack"})[:1])

	cases := []struct {
		name string
		send []byte
		want string // substring of the Error frame payload
	}{
		{"wrong-magic", []byte("HTTP/1.1 GET /\r\n"), wire.ErrBadMagic.Error()},
		{"unsupported-version", append(magicFor(99), hello...), wire.ErrVersion.Error()},
		{"retired-version-1", append(magicFor(1), hello...), wire.ErrVersion.Error()},
		{"retired-version-2", append(magicFor(2), hello...), wire.ErrVersion.Error()},
		{"garbage-before-hello", append(wire.Magic[:], bytes.Repeat([]byte{0xFF}, 64)...), "reading hello"},
		{"hello-truncated", append(wire.Magic[:], truncatedHello...), "malformed hello"},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(c.send); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			ft, payload, err := wire.ReadFrame(conn, nil)
			if err != nil || ft != wire.FrameError {
				t.Fatalf("want an Error frame back, got %v (%v)", ft, err)
			}
			if !strings.HasPrefix(string(payload), wire.HandshakeRefusedPrefix) {
				t.Errorf("refusal %q lacks the handshake prefix", payload)
			}
			if !strings.Contains(string(payload), c.want) {
				t.Errorf("refusal %q does not name the failure %q", payload, c.want)
			}
			if got := srv.Stats().HandshakeRefusals; got != uint64(i+1) {
				t.Errorf("HandshakeRefusals = %d, want %d", got, i+1)
			}
		})
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), fmt.Sprintf("raced_handshake_refusals_total %d", len(cases))) {
		t.Errorf("/metrics missing refusal counter:\n%s", body.String())
	}
}

// TestMidStreamProtocolErrors checks that a session whose client breaks
// the protocol after Welcome is torn down, not suspended: the server
// answers with an Error frame naming the violation and frees the slot.
// The retired plain Events frame (type 3) is one such violation.
func TestMidStreamProtocolErrors(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	events := []fj.Event{{Kind: fj.EvBegin, T: 0}, {Kind: fj.EvWrite, T: 0, Loc: 1}}
	plain := append([]byte{1, byte(len(events))}, fj.AppendEvents(nil, events)...)
	var enc wire.BlockEncoder
	w := fj.Event{Kind: fj.EvWrite, T: 0, Loc: 1}
	fourWrites := []fj.Event{w, w, w, w}
	retired, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "pipeline.block"))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		ft      wire.FrameType
		payload []byte
		want    string // substring of the Error frame payload
	}{
		{"retired-plain-events", wire.FrameType(3), plain, "unexpected FrameType(3) frame mid-stream"},
		{"sequence-gap", wire.FrameEventsBlock, enc.AppendBlock(nil, 2, events), "sequence gap"},
		// Four 3-byte writes (raw scheme) declared as 100 raw bytes.
		{"raw-length-lie", wire.FrameEventsBlock, fj.AppendEvents([]byte{1, 4, 100, 0}, fourWrites),
			"wire: block: raw body is 12 bytes, declared 100"},
		// A block from a client that still sends the retired flate
		// schemes (scheme 3 here): raced refuses it.
		{"retired-scheme-3", wire.FrameEventsBlock, retired, "wire: block: unknown scheme 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if err := wire.WriteMagic(conn); err != nil {
				t.Fatal(err)
			}
			if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(wire.Hello{})); err != nil {
				t.Fatal(err)
			}
			if ft, payload, err := wire.ReadFrame(conn, nil); err != nil || ft != wire.FrameWelcome {
				t.Fatalf("handshake: got %v %q (%v), want a Welcome", ft, payload, err)
			}
			if err := wire.WriteFrame(conn, c.ft, c.payload); err != nil {
				t.Fatal(err)
			}
			ft, payload, err := wire.ReadFrame(conn, nil)
			if err != nil || ft != wire.FrameError {
				t.Fatalf("want an Error frame back, got %v %q (%v)", ft, payload, err)
			}
			if !strings.Contains(string(payload), c.want) {
				t.Errorf("error %q does not name the violation %q", payload, c.want)
			}
			deadline := time.Now().Add(5 * time.Second)
			for srv.Live() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d session(s) still live after a protocol error", srv.Live())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
