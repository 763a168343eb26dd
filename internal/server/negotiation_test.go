package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/fj"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"

	race2d "repro"
)

// negotiationTrace is a regular pipeline-shaped workload: big enough
// that a compressed session ships real blocks and repetitive enough
// that the block codec's ratio is worth asserting on.
func negotiationTrace(t *testing.T) *fj.Trace {
	t.Helper()
	tr := &fj.Trace{}
	if _, err := (workload.Pipeline{Stages: 8, Items: 300, Shared: true, Payload: 4}).Run(tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// streamTrace runs tr through one session with the given options and
// returns the remote report plus the client's transport accounting.
func streamTrace(t *testing.T, addr string, tr *fj.Trace, opts ...client.Option) *race2d.Report {
	t.Helper()
	sess, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer sess.Close()
	sess.EventBatch(tr.Events)
	rep, err := sess.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return rep
}

// requireParity asserts the remote verdict matches a local replay.
func requireParity(t *testing.T, rep *race2d.Report, tr *fj.Trace) {
	t.Helper()
	d := race2d.NewEngineSink(race2d.Engine2D)
	tr.Replay(d)
	local := d.Report()
	if rep.Count != local.Count || rep.Locations != local.Locations ||
		rep.Stats.MemOps() != local.Stats.MemOps() {
		t.Fatalf("remote verdict (races=%d locs=%d memops=%d) != local (races=%d locs=%d memops=%d)",
			rep.Count, rep.Locations, rep.Stats.MemOps(),
			local.Count, local.Locations, local.Stats.MemOps())
	}
}

// TestNegotiationMatrix pins the negotiation outcome of every pairing
// the protocol still has: a v3 client and a v3 server always stream
// compressed blocks — every event frame on the wire is a block — and
// the verdict matches the local replay.
func TestNegotiationMatrix(t *testing.T) {
	tr := negotiationTrace(t)
	cases := []struct {
		name   string
		server server.Config
		client []client.Option
	}{
		{"v3 client, v3 server", server.Config{}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, tc.server)
			rep := streamTrace(t, addr, tr, append(tc.client, client.WithFrameEvents(4096))...)
			requireParity(t, rep, tr)
			st := srv.Stats()
			if st.WireBlocks == 0 || st.WireBlocks != st.Frames || st.WireBytesBlocks != st.WireBytes {
				t.Fatalf("%d of %d event frames (%d of %d bytes) were blocks, want all",
					st.WireBlocks, st.Frames, st.WireBytesBlocks, st.WireBytes)
			}
		})
	}
}

// TestNegotiationMixedSessions streams two sessions against one
// server: per-session negotiation must not leak between them — the
// blocks stand for exactly both traces' record form, and both verdicts
// match the local replay.
func TestNegotiationMixedSessions(t *testing.T) {
	tr := negotiationTrace(t)
	srv, addr := startServer(t, server.Config{})
	requireParity(t, streamTrace(t, addr, tr, client.WithFrameEvents(4096)), tr)
	requireParity(t, streamTrace(t, addr, tr, client.WithFrameEvents(4096)), tr)
	st := srv.Stats()
	if st.WireBlocks == 0 || st.WireBlocks != st.Frames || st.WireBytesBlocks != st.WireBytes {
		t.Fatalf("%d of %d event frames (%d of %d bytes) were blocks, want all",
			st.WireBlocks, st.Frames, st.WireBytesBlocks, st.WireBytes)
	}
	if want := 2 * uint64(fj.EventsSize(tr.Events)); st.WireBytesRaw != want {
		t.Fatalf("block frames stand for %d raw bytes, want two sessions' %d", st.WireBytesRaw, want)
	}
}

// TestNegotiationV3RefusalOnWire pins the documented refusal: a magic
// announcing any version but the one spoken (here the next one, 4)
// must come back from a default server as an Error frame carrying the
// handshake-refused prefix and the ErrVersion text — the exact shape
// clients classify as a terminal refusal.
func TestNegotiationV3RefusalOnWire(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{'R', 'D', 'S', wire.Version + 1}); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(wire.Hello{})); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	if ft != wire.FrameError {
		t.Fatalf("got %v frame, want FrameError", ft)
	}
	text := string(payload)
	if !strings.HasPrefix(text, wire.HandshakeRefusedPrefix) {
		t.Errorf("refusal %q lacks prefix %q", text, wire.HandshakeRefusedPrefix)
	}
	if !strings.Contains(text, wire.ErrVersion.Error()) {
		t.Errorf("refusal %q lacks the ErrVersion text %q", text, wire.ErrVersion)
	}
}

// TestLegacyBatchSizeHello pins wire compatibility with clients that
// still fill the Hello's retired batch-size slot (older clients built
// with a batch-size option sent e.g. 64 there): the session opens, the
// server delivers events one at a time regardless, and the Report
// frame's body is byte-identical to json.Marshal of a local per-event
// replay of the same events.
func TestLegacyBatchSizeHello(t *testing.T) {
	tr := negotiationTrace(t)
	_, addr := startServer(t, server.Config{})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))

	// engine "2d", batch-size slot 64, token 0, caps 0, route key 0,
	// empty auth credential.
	hello := binary.AppendUvarint(nil, 2)
	hello = append(hello, "2d"...)
	for _, v := range []uint64{64, 0, 0, 0, 0} {
		hello = binary.AppendUvarint(hello, v)
	}
	if _, err := conn.Write(wire.Magic[:]); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := wire.ReadFrame(conn, nil)
	if err != nil || ft != wire.FrameWelcome {
		t.Fatalf("handshake: %v frame %q (%v), want a Welcome", ft, payload, err)
	}
	if _, err := wire.DecodeWelcomeV3(payload); err != nil {
		t.Fatalf("welcome: %v", err)
	}

	var enc wire.BlockEncoder
	seq := uint64(0)
	for i := 0; i < len(tr.Events); i += client.DefaultFrameEvents {
		seq++
		block := enc.AppendBlock(nil, seq, tr.Events[i:min(i+client.DefaultFrameEvents, len(tr.Events))])
		if err := wire.WriteFrame(conn, wire.FrameEventsBlock, block); err != nil {
			t.Fatal(err)
		}
	}
	if err := wire.WriteFrame(conn, wire.FrameFinish, nil); err != nil {
		t.Fatal(err)
	}
	for {
		ft, payload, err = wire.ReadFrame(conn, nil)
		if err != nil {
			t.Fatalf("awaiting the report: %v", err)
		}
		if ft == wire.FrameReport {
			break
		}
		if ft != wire.FrameAck {
			t.Fatalf("got %v frame %q, want acks then a Report", ft, payload)
		}
	}
	flags, body, err := wire.DecodeReport(payload)
	if err != nil || flags != 0 {
		t.Fatalf("report frame: flags=%d err=%v", flags, err)
	}

	d := race2d.NewEngineSink(race2d.Engine2D)
	tr.Replay(d)
	want, err := json.Marshal(d.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("remote report differs from the local per-event replay\nremote: %s\nlocal:  %s", body, want)
	}
}

// TestNegotiationCompressionRatio holds the codec to its keep on the
// wire it was built for: a pipeline-shaped session must compress at
// least 4x end to end, measured by the server's own accounting.
func TestNegotiationCompressionRatio(t *testing.T) {
	tr := negotiationTrace(t)
	srv, addr := startServer(t, server.Config{})
	rep := streamTrace(t, addr, tr, client.WithFrameEvents(8192))
	requireParity(t, rep, tr)
	st := srv.Stats()
	if st.WireBlocks == 0 {
		t.Fatal("session shipped no block frames")
	}
	if ratio := st.CompressRatio(); ratio < 4 {
		t.Fatalf("compression ratio %.2f (%d raw -> %d wire bytes), want >= 4",
			ratio, st.WireBytesRaw, st.WireBytesBlocks)
	}
}
