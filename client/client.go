// Package client speaks the raced wire protocol (internal/wire) to a
// streaming race-detection server. A Session is an event sink — plug it
// anywhere an fj.Sink goes (prog.Exec, workload generators, trace
// replay) — whose verdict is computed remotely: events are framed in
// batches, streamed over TCP, and Finish returns the server engine's
// Report.
//
// # Fault tolerance
//
// Every EventsBlock frame carries a
// monotonically increasing sequence number, and the server acknowledges
// the highest contiguously ingested sequence. Batches stay in a bounded
// replay window until acknowledged — as their encoded blocks, so a
// resend writes the very bytes of the first send without re-encoding
// (blocks are self-contained) — and when the connection dies —
// reset, corruption (caught by the frame CRC), truncation, a silent
// drop — the client reconnects with exponential backoff plus full
// jitter, presents its resume token, and resends exactly the batches
// the server has not acknowledged. The server discards duplicate
// sequences, so the detector ingests every event exactly once and the
// verdict is byte-identical to an undisturbed run. With RetainAll the
// window additionally keeps acknowledged batches, which lets the
// client survive a full server restart (the resume token is unknown to
// the new process) by opening a fresh session and replaying the stream
// from the first batch. A per-connection heartbeat bounds dead-peer
// detection; a retry budget bounds reconnection, after which the
// session circuit-breaks and Finish reports ErrPartial rather than
// hanging.
//
// Mid-stream server drains are still not fatal: a server draining on
// SIGTERM stops reading and owes the session a Report for the prefix it
// consumed. Finish returns ErrPartial (with that report) in that case.
//
// # Wire compression
//
// Batches always ship as compressed EventsBlock frames of
// DefaultFrameEvents (4096) events: per-field deltas against four
// address cursors, a copy-run layer over the fork-join structure, and
// a per-block Huffman code for each field, else raw record form when
// that is smaller — internal/wire's block codec. That typically cuts
// bytes on the wire several-fold. Compression never touches verdicts: blocks decode to
// the identical event stream, and Session.Stats reports the
// blocks/bytes/ratio accounting. Each batch is encoded exactly once,
// so the accounting does not count resends.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fj"
	"repro/internal/obs"
	"repro/internal/wire"

	race2d "repro"
)

// DefaultFrameEvents is how many events a Session packs per wire frame
// before flushing, unless WithFrameEvents says otherwise: the wire's
// default block size, which raced sizes its decode slabs to.
const DefaultFrameEvents = wire.DefaultBlockEvents

// DefaultWindowBatches bounds the replay window (unacknowledged batches
// held for resend) unless WithReplayWindow says otherwise: 8 default
// frames, 32,768 events in flight.
const DefaultWindowBatches = 8

// ErrPartial marks an incomplete verdict: either a report produced by a
// draining server (a coherent verdict for the prefix of the stream the
// server consumed — the Report is non-nil), or a stream the client had
// to abandon because its retry budget ran out (the Report may be nil).
var ErrPartial = errors.New("client: partial report (stream did not complete)")

// pending is one sequenced batch awaiting acknowledgement (or retained
// for restart replay), held as its encoded block payload.
type pending struct {
	seq   uint64
	block []byte
}

// Session is one open detection session. It implements fj.Sink and
// fj.BatchSink; it is single-producer, like every detector sink. Two
// background goroutines ride along per connection: a reader (acks,
// report, errors) and a heartbeat.
type Session struct {
	endpoints []string // dial targets, tried in rotation; [0] is the Dial addr
	ep        int      // index of the endpoint the next dial tries
	opts      options

	mu   sync.Mutex
	cond sync.Cond
	conn net.Conn      // nil while disconnected
	bw   *bufio.Writer // paired with conn
	gen  uint64        // connection generation; guards stale goroutines

	id       uint64
	token    uint64 // resume token (0 before the first Welcome)
	nextSeq  uint64 // sequence for the next batch cut from the producer
	acked    uint64 // highest server-acknowledged sequence
	window   []pending
	spare    [][]byte // block buffers of pruned batches, for reuse
	attempts int      // consecutive failed connect attempts

	report        *race2d.Report
	reportPartial bool
	srvErr        error // terminal server Error frame
	broken        error // circuit open: retry budget exhausted or refusal
	lastNetErr    error
	finishing     bool // Finish sent; the server is allowed to be silent
	everConnected bool
	closed        bool

	reconnects       uint64
	resends          uint64
	heartbeatsMissed uint64

	lastRecv atomic.Int64 // unix nanos of the last server frame

	wmu   sync.Mutex        // serializes conn writes (producer vs heartbeat)
	frame []byte            // frame-encoding scratch, under wmu
	enc   wire.BlockEncoder // block compressor (scratch + counters), under wmu

	batch []fj.Event // producer-side accumulation
}

// Dial connects to a raced server (or racedctl gateway) and opens a
// session, configured by functional options — see WithMaxAttempts,
// WithBackoff, WithHeartbeat, WithEndpoints, and friends. An option
// with an invalid value fails Dial immediately, before any network
// traffic. Transport failures are retried within the MaxAttempts
// budget, rotating through addr plus any WithEndpoints fallbacks;
// server refusals (unknown engine, session limit, bad credential,
// quota, unsupported protocol version) fail immediately.
func Dial(addr string, opts ...Option) (*Session, error) {
	norm, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	s := &Session{opts: norm, nextSeq: 1}
	s.endpoints = append([]string{addr}, norm.Endpoints...)
	s.cond.L = &s.mu
	s.batch = make([]fj.Event, 0, s.opts.EventsPerFrame)
	if err := s.connect(); err != nil {
		return nil, err
	}
	return s, nil
}

// ID returns the server-assigned session identifier.
func (s *Session) ID() uint64 { return s.id }

// Token returns the session's resume token (zero before the first
// Welcome). After a clean Finish against a persisting server the token
// is the durable retrieval key: Fetch(addr, token) re-collects the
// identical Report bytes, surviving a server restart.
func (s *Session) Token() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.token
}

// Stats snapshots the session's fault-tolerance and wire-compression
// counters.
func (s *Session) Stats() obs.Stats {
	s.mu.Lock()
	st := obs.Stats{
		Reconnects:       s.reconnects,
		Resends:          s.resends,
		HeartbeatsMissed: s.heartbeatsMissed,
	}
	s.mu.Unlock()
	s.wmu.Lock()
	st.WireBlocks = s.enc.Blocks
	st.WireBytesBlocks = s.enc.WireBytes
	st.WireBytesRaw = s.enc.RawBytes
	s.wmu.Unlock()
	return st
}

// healthyLocked reports whether the stream is still worth feeding:
// no verdict yet, no terminal error, not closed.
func (s *Session) healthyLocked() bool {
	return s.broken == nil && s.srvErr == nil && s.report == nil && !s.closed
}

// waitLocked waits on the session condition for at most d.
func (s *Session) waitLocked(d time.Duration) {
	t := time.AfterFunc(d, s.cond.Broadcast)
	s.cond.Wait()
	t.Stop()
}

// killConn declares generation gen's connection dead. Stale calls (an
// old reader noticing its conn died after a reconnect) are no-ops.
func (s *Session) killConn(gen uint64, err error) {
	s.mu.Lock()
	if s.gen == gen && s.conn != nil {
		s.conn.Close()
		s.conn = nil
		s.bw = nil
		s.lastNetErr = err
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// connect establishes (or re-establishes) the connection: dial,
// handshake, resume, and resend of everything unacknowledged. Producer
// context only. Returns nil once connected or once the session reached
// a terminal state (verdict or error); the caller re-checks.
func (s *Session) connect() error {
	for {
		s.mu.Lock()
		if !s.healthyLocked() {
			err := s.broken
			if err == nil {
				err = s.srvErr
			}
			s.mu.Unlock()
			return err
		}
		if s.conn != nil {
			s.mu.Unlock()
			return nil
		}
		attempt := s.attempts
		s.attempts++
		if attempt >= s.opts.MaxAttempts {
			s.broken = fmt.Errorf("client: retry budget exhausted after %d attempts (last error: %v): %w",
				attempt, s.lastNetErr, ErrPartial)
			err := s.broken
			s.cond.Broadcast()
			s.mu.Unlock()
			return err
		}
		token := s.token
		addr := s.endpoints[s.ep%len(s.endpoints)]
		s.mu.Unlock()

		if attempt > 0 {
			time.Sleep(backoff(s.opts, attempt))
		}
		dial := s.opts.dial
		if dial == nil {
			dial = net.DialTimeout
		}
		conn, err := dial("tcp", addr, s.opts.DialTimeout)
		if err != nil {
			s.noteNetErr(fmt.Errorf("client: dial %s: %w", addr, err))
			s.nextEndpoint()
			continue
		}
		if err := s.handshake(conn, token); err != nil {
			conn.Close()
			if terminal := s.terminalErr(); terminal != nil {
				return terminal
			}
			s.noteNetErr(err)
			s.nextEndpoint()
			continue
		}
		if s.resendWindow() {
			return nil
		}
		// The fresh connection died during the resend; go around again.
	}
}

func (s *Session) noteNetErr(err error) {
	s.mu.Lock()
	s.lastNetErr = err
	s.mu.Unlock()
}

// nextEndpoint rotates the dial target after a failed attempt, so
// retries spread across the WithEndpoints seed list. A no-op with a
// single endpoint.
func (s *Session) nextEndpoint() {
	s.mu.Lock()
	s.ep++
	s.mu.Unlock()
}

func (s *Session) terminalErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	return s.srvErr
}

// backoff is the reconnect delay shared by streaming sessions and
// Fetch: full jitter under an exponential ceiling, uniform(0, min(max,
// base<<k)).
func backoff(o options, attempt int) time.Duration {
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	ceil := o.BackoffBase << shift
	if ceil > o.BackoffMax || ceil <= 0 {
		ceil = o.BackoffMax
	}
	return time.Duration(rand.Int63n(int64(ceil) + 1))
}

// handshake performs the hello/welcome exchange on a fresh conn and,
// on success, installs it as the session's current connection with its
// reader and heartbeat goroutines.
func (s *Session) handshake(conn net.Conn, token uint64) error {
	conn.SetDeadline(time.Now().Add(s.opts.DialTimeout))
	hello := wire.Hello{Engine: s.opts.Engine, BatchSize: s.opts.BatchSize, Token: token, RouteKey: s.opts.RouteKey}
	if s.opts.AuthToken != "" {
		hello.Caps = wire.CapTenant
		hello.Auth = s.opts.AuthToken
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	err := wire.WriteMagic(bw)
	if err == nil {
		err = wire.WriteFrame(bw, wire.FrameHello, wire.EncodeHelloV3(hello))
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("client: handshake: %w", err)
	}
	ft, payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return fmt.Errorf("client: handshake: %w", err)
	}
	var welcome wire.Welcome
	switch ft {
	case wire.FrameWelcome:
		if welcome, err = wire.DecodeWelcomeV3(payload); err != nil {
			return fmt.Errorf("client: handshake: %w", err)
		}
	case wire.FrameError:
		if token != 0 && string(payload) == wire.ErrUnknownResume.Error() {
			// The server no longer knows this session — it restarted or
			// the resume window lapsed.
			if s.opts.RetainAll {
				// The window holds the whole stream: fall back to a fresh
				// session and replay from the first batch.
				s.mu.Lock()
				s.token = 0
				s.acked = 0
				s.mu.Unlock()
				return fmt.Errorf("client: %s; replaying stream into a fresh session", payload)
			}
			return s.breakCircuit(fmt.Errorf("client: session lost (%s) and RetainAll is off: %w", payload, ErrPartial))
		}
		if strings.HasPrefix(string(payload), wire.HandshakeRefusedPrefix) && !terminalRefusal(string(payload)) {
			// The server could not read our handshake — the bytes were
			// garbled in transit, not the request itself — or it is
			// draining. Retryable.
			return fmt.Errorf("client: handshake refused: %s", payload)
		}
		return s.breakCircuit(fmt.Errorf("client: server refused session: %s", payload))
	default:
		return fmt.Errorf("client: handshake: unexpected %v frame", ft)
	}
	conn.SetDeadline(time.Time{})

	s.mu.Lock()
	s.id = welcome.Session
	s.token = welcome.Token
	if welcome.NextSeq > 0 && welcome.NextSeq-1 > s.acked {
		// The server ingested more than we saw acks for; trust it.
		s.acked = welcome.NextSeq - 1
	}
	s.pruneLocked()
	s.gen++
	gen := s.gen
	s.conn = conn
	s.bw = bufio.NewWriterSize(conn, 64<<10)
	if s.everConnected {
		s.reconnects++
	}
	s.everConnected = true
	s.mu.Unlock()

	s.lastRecv.Store(time.Now().UnixNano())
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		s.reader(conn, gen)
	}()
	if s.opts.HeartbeatInterval > 0 {
		go s.heartbeat(conn, gen, readerDone)
	}
	return nil
}

// breakCircuit makes err the session's terminal state: no further
// connect attempts, and Finish reports it. Returns err.
func (s *Session) breakCircuit(err error) error {
	s.mu.Lock()
	s.broken = err
	s.cond.Broadcast()
	s.mu.Unlock()
	return err
}

// terminalRefusal reports whether a server refusal text names a failure
// no retry can cure: a bad credential (wire.ErrAuth), an exhausted
// quota (wire.ErrQuota), an unsupported protocol version
// (wire.ErrVersion), or a tampered report store. The first three ride
// the handshake-refusal prefix, which otherwise marks a retryable
// refusal. Dial and Fetch both classify refusals here. (Unknown-resume
// is classified separately: its meaning depends on RetainAll and, for
// Fetch, on the remaining endpoints.)
func terminalRefusal(msg string) bool {
	for _, terminal := range []string{
		wire.ErrAuth.Error(),
		wire.ErrQuota.Error(),
		wire.ErrVersion.Error(),
		"store: log tampered",
	} {
		if strings.Contains(msg, terminal) {
			return true
		}
	}
	return false
}

// pruneLocked drops acknowledged batches from the window (kept under
// RetainAll for restart replay), keeping their buffers for reuse. Only
// the producer encodes into a spare buffer, and never while one of its
// own writes is in flight, so a block pruned mid-write is safe.
func (s *Session) pruneLocked() {
	if s.opts.RetainAll {
		return
	}
	i := 0
	for i < len(s.window) && s.window[i].seq <= s.acked {
		s.spare = append(s.spare, s.window[i].block[:0])
		s.window[i].block = nil
		i++
	}
	if i > 0 {
		s.window = append(s.window[:0], s.window[i:]...)
	}
}

// resendWindow pushes every unacknowledged batch onto the current
// connection. Reports whether the connection survived.
func (s *Session) resendWindow() bool {
	s.mu.Lock()
	conn, bw, gen := s.conn, s.bw, s.gen
	var todo []pending
	for _, p := range s.window {
		if p.seq > s.acked {
			todo = append(todo, p)
		}
	}
	s.mu.Unlock()
	if conn == nil {
		return false
	}
	for _, p := range todo {
		if err := s.writeFrame(conn, bw, wire.FrameEventsBlock, p.block); err != nil {
			s.killConn(gen, err)
			return false
		}
	}
	if err := s.flushWire(conn, bw); err != nil {
		s.killConn(gen, err)
		return false
	}
	s.mu.Lock()
	s.attempts = 0
	s.resends += uint64(len(todo))
	s.mu.Unlock()
	return true
}

// writeFrame frames payload into the shared scratch and writes it
// under the write lock with a fresh write deadline.
func (s *Session) writeFrame(conn net.Conn, bw *bufio.Writer, ft wire.FrameType, payload []byte) error {
	if len(payload) > wire.MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", wire.ErrFrameTooLarge, len(payload))
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.frame = wire.AppendFrame(s.frame[:0], ft, payload)
	conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	_, err := bw.Write(s.frame)
	return err
}

// flushWire drains the buffered writer under the write lock.
func (s *Session) flushWire(conn net.Conn, bw *bufio.Writer) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	return bw.Flush()
}

// reader consumes server frames for one connection: acks advance the
// window, a Report or Error resolves the session, heartbeats just
// refresh liveness.
func (s *Session) reader(conn net.Conn, gen uint64) {
	var scratch []byte
	for {
		ft, payload, err := wire.ReadFrame(conn, scratch)
		if err != nil {
			s.killConn(gen, err)
			return
		}
		scratch = payload[:0]
		s.lastRecv.Store(time.Now().UnixNano())
		switch ft {
		case wire.FrameAck:
			seq, err := wire.DecodeAck(payload)
			if err != nil {
				s.killConn(gen, err)
				return
			}
			s.mu.Lock()
			if seq > s.acked {
				s.acked = seq
				s.pruneLocked()
			}
			s.cond.Broadcast()
			s.mu.Unlock()
		case wire.FrameReport:
			flags, body, err := wire.DecodeReport(payload)
			rep := &race2d.Report{}
			if err == nil {
				err = json.Unmarshal(body, rep)
			}
			s.mu.Lock()
			if err != nil {
				s.srvErr = fmt.Errorf("client: report: %w", err)
			} else {
				s.report = rep
				s.reportPartial = flags&wire.FlagPartial != 0
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		case wire.FrameError:
			s.mu.Lock()
			s.srvErr = fmt.Errorf("client: server error: %s", payload)
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		case wire.FrameHeartbeat:
			// Liveness only; the timestamp above is the point.
		default:
			s.killConn(gen, fmt.Errorf("client: unexpected %v frame from server", ft))
			return
		}
	}
}

// heartbeat keeps one connection's liveness bounded: it sends a
// Heartbeat frame every interval (the server answers with an Ack) and
// declares the peer dead after HeartbeatMisses silent intervals. While
// Finish is waiting on the Report the server is legitimately silent
// (it may be draining a large queue), so the dead-peer verdict is
// suspended and FinishTimeout rules instead. It exits with the
// connection's reader (readerDone), which every close of conn ends, so
// a closed session leaves no heartbeat behind.
func (s *Session) heartbeat(conn net.Conn, gen uint64, readerDone <-chan struct{}) {
	interval := s.opts.HeartbeatInterval
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-readerDone:
			return
		}
		s.mu.Lock()
		stale := s.gen != gen || s.conn == nil || s.closed
		finishing := s.finishing
		bw := s.bw
		s.mu.Unlock()
		if stale {
			return
		}
		idle := time.Since(time.Unix(0, s.lastRecv.Load()))
		if idle > interval && !finishing {
			s.mu.Lock()
			s.heartbeatsMissed++
			s.mu.Unlock()
			if idle > time.Duration(s.opts.HeartbeatMisses)*interval {
				s.killConn(gen, fmt.Errorf("client: server silent for %v", idle.Round(time.Millisecond)))
				return
			}
		}
		if finishing {
			// The server stopped reading after Finish; writing would only
			// fill the socket buffer.
			continue
		}
		err := s.writeFrame(conn, bw, wire.FrameHeartbeat, nil)
		if err == nil {
			err = s.flushWire(conn, bw)
		}
		if err != nil {
			s.killConn(gen, err)
			return
		}
	}
}

// Event buffers one event, cutting a sequenced batch when the transport
// batch fills. Implements fj.Sink.
func (s *Session) Event(e fj.Event) {
	s.batch = append(s.batch, e)
	if len(s.batch) >= s.opts.EventsPerFrame {
		s.flushFrame()
	}
}

// EventBatch buffers a slab of events. Implements fj.BatchSink. Full
// frames are encoded straight from events, which the session does not
// retain.
func (s *Session) EventBatch(events []fj.Event) {
	for len(events) > 0 {
		if len(s.batch) == 0 && len(events) >= s.opts.EventsPerFrame {
			s.sendBatch(events[:s.opts.EventsPerFrame])
			events = events[s.opts.EventsPerFrame:]
			continue
		}
		n := min(s.opts.EventsPerFrame-len(s.batch), len(events))
		s.batch = append(s.batch, events[:n]...)
		events = events[n:]
		if len(s.batch) >= s.opts.EventsPerFrame {
			s.flushFrame()
		}
	}
}

// flushFrame cuts the accumulated events into a sequenced batch and
// sends it.
func (s *Session) flushFrame() {
	if len(s.batch) == 0 {
		return
	}
	s.sendBatch(s.batch)
	s.batch = s.batch[:0]
}

// sendBatch admits one batch into the replay window (blocking while the
// window is full), encodes it once into a block, and writes it to the
// wire. The window keeps the block, not events, so the caller may reuse
// events on return. After the circuit breaks or the server has already
// rendered a verdict, batches are dropped — Finish will report what
// happened.
func (s *Session) sendBatch(events []fj.Event) {
	// Window admission, with a stall bound: a full window that sees no
	// ack progress for FinishTimeout means the connection is dead in a
	// way the transport has not surfaced; kill it and let the reconnect
	// path resend.
	s.mu.Lock()
	stallStart := time.Now()
	lastAcked := s.acked
	for s.healthyLocked() && s.nextSeq-s.acked > uint64(s.opts.WindowBatches) {
		if s.acked != lastAcked {
			lastAcked = s.acked
			stallStart = time.Now()
		}
		if s.conn == nil {
			s.mu.Unlock()
			s.connect()
			s.mu.Lock()
			continue
		}
		conn, bw, gen := s.conn, s.bw, s.gen
		s.mu.Unlock()
		// Acks can only arrive for frames the server has seen: push any
		// buffered bytes out before sleeping.
		if err := s.flushWire(conn, bw); err != nil {
			s.killConn(gen, err)
			s.mu.Lock()
			continue
		}
		if time.Since(stallStart) > s.opts.FinishTimeout {
			s.killConn(gen, fmt.Errorf("client: no ack progress for %v", s.opts.FinishTimeout))
			s.mu.Lock()
			continue
		}
		s.mu.Lock()
		if s.healthyLocked() && s.nextSeq-s.acked > uint64(s.opts.WindowBatches) && s.conn != nil {
			s.waitLocked(100 * time.Millisecond)
		}
	}
	if !s.healthyLocked() {
		s.mu.Unlock()
		return
	}
	p := pending{seq: s.nextSeq}
	s.nextSeq++
	if n := len(s.spare); n > 0 {
		p.block = s.spare[n-1]
		s.spare = s.spare[:n-1]
	}
	s.mu.Unlock()

	// Encode outside s.mu, so the reader can process acks meanwhile.
	s.wmu.Lock()
	p.block = s.enc.AppendBlock(p.block, p.seq, events)
	s.wmu.Unlock()

	s.mu.Lock()
	s.window = append(s.window, p)
	conn, bw, gen := s.conn, s.bw, s.gen
	s.mu.Unlock()

	if conn == nil {
		// Disconnected: the batch is safely in the window; connect()
		// resends it along with everything else outstanding.
		s.connect()
		return
	}
	if err := s.writeFrame(conn, bw, wire.FrameEventsBlock, p.block); err != nil {
		s.killConn(gen, err)
		s.connect()
	}
}

// Flush pushes all buffered events onto the wire. A terminal session
// error (circuit open, server refusal) is returned; transient transport
// trouble is not — the replay window covers it.
func (s *Session) Flush() error {
	s.flushFrame()
	s.mu.Lock()
	conn, bw, gen := s.conn, s.bw, s.gen
	err := s.broken
	if err == nil {
		err = s.srvErr
	}
	s.mu.Unlock()
	if err != nil || conn == nil {
		return err
	}
	if ferr := s.flushWire(conn, bw); ferr != nil {
		s.killConn(gen, ferr)
	}
	return nil
}

// Finish declares the stream complete and waits for the server's
// Report, reconnecting and resending through faults as needed. When the
// server drained mid-stream the returned error wraps ErrPartial and the
// Report (non-nil) covers the consumed prefix; when the retry budget
// ran out the error wraps ErrPartial and the Report may be nil.
func (s *Session) Finish() (*race2d.Report, error) {
	s.flushFrame()
	deadline := time.Now().Add(s.opts.FinishTimeout)
	var finishedGen uint64 // generation the Finish frame was sent on
	for {
		s.mu.Lock()
		if s.report != nil {
			rep, partial := s.report, s.reportPartial
			s.mu.Unlock()
			if partial {
				return rep, ErrPartial
			}
			return rep, nil
		}
		if err := s.srvErr; err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if err := s.broken; err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if s.closed {
			s.mu.Unlock()
			return nil, errors.New("client: session closed")
		}
		if time.Now().After(deadline) {
			s.mu.Unlock()
			return nil, fmt.Errorf("client: no report within %v (last error: %v): %w",
				s.opts.FinishTimeout, s.lastNetErr, ErrPartial)
		}
		s.finishing = true
		conn, bw, gen := s.conn, s.bw, s.gen
		s.mu.Unlock()

		if conn == nil {
			s.connect()
			continue
		}
		if finishedGen != gen {
			// (Re)send Finish on this connection: a resumed server-side
			// session needs it again if the original frame was lost.
			err := s.writeFrame(conn, bw, wire.FrameFinish, nil)
			if err == nil {
				err = s.flushWire(conn, bw)
			}
			if err != nil {
				s.killConn(gen, err)
				continue
			}
			finishedGen = gen
		}
		s.mu.Lock()
		if s.report == nil && s.srvErr == nil && s.broken == nil && s.conn != nil && s.gen == gen {
			s.waitLocked(100 * time.Millisecond)
		}
		s.mu.Unlock()
	}
}

// Close releases the connection and stops the background goroutines.
// Idempotent; safe after Finish and in deferred cleanup alongside it.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conn := s.conn
	s.conn = nil
	s.bw = nil
	s.gen++ // orphan any reader/heartbeat still running
	s.cond.Broadcast()
	s.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
