package client

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/fj"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"

	race2d "repro"
)

// sendRecorder keeps, per connection, every byte a session handed its
// transport, before any injected fault acts on them.
type sendRecorder struct {
	mu    sync.Mutex
	conns []*bytes.Buffer
}

// dialer returns a dial seam whose connections record their writes and
// route them through inj; reads go straight to the transport, so the
// injected kill lands on the send path, where it strands blocks the
// server never saw.
func (r *sendRecorder) dialer(inj *faults.Injector) Option {
	return func(o *options) error {
		o.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout(network, addr, timeout)
			if err != nil {
				return nil, err
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			buf := &bytes.Buffer{}
			r.conns = append(r.conns, buf)
			return &recordingConn{Conn: c, faulty: inj.Conn(c), mu: &r.mu, buf: buf}, nil
		}
		return nil
	}
}

type recordingConn struct {
	net.Conn
	faulty net.Conn
	mu     *sync.Mutex
	buf    *bytes.Buffer
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf.Write(p)
	c.mu.Unlock()
	return c.faulty.Write(p)
}

// blocks parses each recorded connection (magic, then frames up to the
// first torn one) and returns every EventsBlock payload it carried, in
// send order.
func (r *sendRecorder) blocks(t *testing.T) [][]byte {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [][]byte
	for _, buf := range r.conns {
		rd := bytes.NewReader(buf.Bytes())
		if err := wire.ReadMagic(rd); err != nil {
			continue
		}
		for {
			ft, payload, err := wire.ReadFrame(rd, nil)
			if err != nil {
				break
			}
			if ft == wire.FrameEventsBlock {
				out = append(out, payload)
			}
		}
	}
	return out
}

// TestReplayWindowResendsEncodedBlocks kills the connection mid-stream
// and checks the replay window's contract: blocks are encoded once per
// batch, a resend writes the bytes of the first send, and the verdict
// is byte-identical to the local run — with and without RetainAll.
func TestReplayWindowResendsEncodedBlocks(t *testing.T) {
	// Random fork-join programs back to back on one root task.
	tr := &fj.Trace{}
	_, err := fj.Run(func(root *fj.Task) {
		for seed := int64(1); len(tr.Events) < 40000; seed++ {
			workload.ForkJoin{Seed: seed, Ops: 400, MaxDepth: 6, Mix: workload.Mix{Locs: 64, ReadFrac: 0.7, Block: 2}}.Program()(root)
		}
	}, tr, fj.Options{AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	d := race2d.NewEngineSink(race2d.Engine2D)
	tr.Replay(d)
	local := render(t, d.Report(), tr.Tasks())

	const frame = 512
	wantBlocks := uint64((len(tr.Events) + frame - 1) / frame)
	if wantBlocks < 40 {
		t.Fatalf("trace has only %d events; the test needs a longer stream", len(tr.Events))
	}

	for _, retainAll := range []bool{false, true} {
		name := "window"
		if retainAll {
			name = "retain-all"
		}
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(server.Config{ResumeWindow: 10 * time.Second})
			go srv.Serve(ln)
			defer srv.Close()

			// The third write is the second window-full flush of blocks.
			rec := &sendRecorder{}
			inj := faults.New(faults.Config{Seed: 1, Classes: faults.Reset, Every: 3, MaxFaults: 1})
			opts := []Option{
				WithFrameEvents(frame),
				WithoutHeartbeat(),
				WithFinishTimeout(20 * time.Second),
				WithMaxAttempts(20),
				WithBackoff(time.Millisecond, 10*time.Millisecond),
				rec.dialer(inj),
			}
			if retainAll {
				opts = append(opts, WithRetainAll())
			}
			sess, err := Dial(ln.Addr().String(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			// Feed uneven slabs and clobber each after the call: full
			// frames are encoded straight from the caller's slice, and the
			// window must not keep a reference to it.
			events := append([]fj.Event(nil), tr.Events...)
			for off := 0; off < len(events); off += 1000 {
				slab := events[off:min(off+1000, len(events))]
				sess.EventBatch(slab)
				clear(slab)
			}
			rep, err := sess.Finish()
			if err != nil {
				t.Fatalf("Finish across a killed connection: %v", err)
			}
			if remote := render(t, rep, tr.Tasks()); remote != local {
				t.Errorf("verdict differs from the local run\nlocal:\n%s\nremote:\n%s", local, remote)
			}
			if inj.Injected() != 1 {
				t.Fatalf("injected %d faults, want 1", inj.Injected())
			}

			st := sess.Stats()
			if st.Resends == 0 {
				t.Errorf("no resends after a mid-stream kill: %+v", st)
			}
			if st.WireBlocks != wantBlocks {
				t.Errorf("WireBlocks = %d, want %d: the encoder must run once per batch", st.WireBlocks, wantBlocks)
			}

			first := map[uint64][]byte{}
			resent := 0
			for _, b := range rec.blocks(t) {
				seq, k := binary.Uvarint(b)
				if k <= 0 {
					t.Fatal("recorded block without a sequence number")
				}
				prev, seen := first[seq]
				if !seen {
					first[seq] = b
					continue
				}
				resent++
				if !bytes.Equal(prev, b) {
					t.Errorf("block %d resent with different bytes (%d vs %d)", seq, len(prev), len(b))
				}
			}
			if resent == 0 {
				t.Error("no block was recorded twice; the kill stranded nothing")
			}
			if uint64(len(first)) != wantBlocks {
				t.Errorf("recorded %d distinct blocks, want %d", len(first), wantBlocks)
			}
		})
	}
}

func render(t *testing.T, rep *race2d.Report, tasks int) string {
	t.Helper()
	rep.Tasks = tasks
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
