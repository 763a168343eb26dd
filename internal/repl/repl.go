// Package repl streams a raced backend's hash-chained report log to
// follower backends (raced -replicate-to) and hosts the replica logs a
// follower keeps for its sources.
//
// The primary side (Source) runs one goroutine per follower: it dials
// the follower's ordinary wire listener, opens the stream with
// FrameReplHello, learns the follower's exact chain position from
// FrameReplWelcome (the anti-entropy handshake — after a follower
// restart the primary simply replays its own log from the announced
// position), and streams FrameReplRecord frames carrying the
// byte-identical on-disk framing of each chain record. The follower
// verifies every record's chain link before applying, so a replica is
// bit-for-bit the same chain as its source.
//
// Replication is synchronous-best-effort: ReplicatedStore.Put appends
// locally, then waits up to SyncTimeout for every healthy follower to
// acknowledge — so with live followers a Finish-acked report is already
// off-host when the ack goes out — but a follower that is down or slow
// is demoted to degraded mode (retry with backoff, catch-up from its
// acknowledged position, bounded by the spill budget) instead of
// failing the Finish ack. A degraded follower stops gating Puts until
// it has caught back up.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

// Wire chain hashes and store chain hashes must be the same thing.
var _ [wire.ChainHashSize]byte = [store.HashSize]byte{}

// errFailed marks a follower the source has permanently given up on:
// its chain diverged, it was compacted past, or it blew the spill
// budget. No more retries.
var errFailed = errors.New("repl: follower failed permanently")

// SourceConfig configures the primary side of replication.
type SourceConfig struct {
	// Log is the source chain being replicated.
	Log *store.Log
	// Followers are the follower backends' wire addresses.
	Followers []string
	// Key is the replication credential presented in ReplHello; must
	// match the follower's -repl-key.
	Key string
	// DialTimeout bounds connect + handshake and each ack read
	// (default 5s).
	DialTimeout time.Duration
	// SyncTimeout bounds how long Sync (and so a Finish ack) waits for
	// healthy followers before demoting laggards to degraded mode
	// (default 2s).
	SyncTimeout time.Duration
	// BackoffBase/BackoffMax shape the full-jitter reconnect backoff
	// (defaults 100ms / 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HeartbeatEvery paces keepalives on an idle stream (default 10s).
	HeartbeatEvery time.Duration
	// SpillRecords is the spill budget: a degraded follower whose
	// backlog exceeds this many chain records is declared failed and
	// dropped instead of buffered for forever (default 65536).
	SpillRecords uint64
	// Logf, when non-nil, receives replication lifecycle events.
	Logf func(format string, args ...any)
}

func (c SourceConfig) withDefaults() SourceConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 2 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 10 * time.Second
	}
	if c.SpillRecords == 0 {
		c.SpillRecords = 1 << 16
	}
	return c
}

// follower is one replication target's live state.
type follower struct {
	addr      string
	acked     atomic.Uint64 // next chain index the follower has not applied
	connected atomic.Bool
	degraded  atomic.Bool // not gating Puts until caught up
	failed    atomic.Bool // permanently dropped
	retries   atomic.Uint64
}

// Source replicates one log to a set of followers.
type Source struct {
	cfg       SourceConfig
	mu        sync.Mutex
	cond      *sync.Cond
	followers []*follower
	done      chan struct{}
	wg        sync.WaitGroup

	recordsSent    atomic.Uint64
	acksReceived   atomic.Uint64
	degradedEvents atomic.Uint64
}

// NewSource starts replicating cfg.Log to cfg.Followers.
func NewSource(cfg SourceConfig) *Source {
	cfg = cfg.withDefaults()
	s := &Source{cfg: cfg, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	for _, addr := range cfg.Followers {
		f := &follower{addr: addr}
		s.followers = append(s.followers, f)
		s.wg.Add(1)
		go s.run(f)
	}
	return s
}

func (s *Source) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// broadcast wakes Sync waiters after any follower state change.
func (s *Source) broadcast() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Sync blocks until every healthy follower has acknowledged the chain
// up to target, or SyncTimeout passes — in which case the laggards are
// demoted to degraded mode (they catch up asynchronously and stop
// gating future Syncs) and Sync returns. It never returns an error:
// replication degrades, the Finish ack does not fail.
func (s *Source) Sync(target uint64) {
	if len(s.followers) == 0 {
		return
	}
	deadline := time.Now().Add(s.cfg.SyncTimeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var pending []*follower
		for _, f := range s.followers {
			if !f.failed.Load() && !f.degraded.Load() && f.acked.Load() < target {
				pending = append(pending, f)
			}
		}
		if len(pending) == 0 {
			return
		}
		if !time.Now().Before(deadline) {
			for _, f := range pending {
				if f.degraded.CompareAndSwap(false, true) {
					s.degradedEvents.Add(1)
					s.logf("repl: follower %s degraded (no ack within %v); catching up in the background", f.addr, s.cfg.SyncTimeout)
				}
			}
			return
		}
		t := time.AfterFunc(time.Until(deadline), s.cond.Broadcast)
		s.cond.Wait()
		t.Stop()
	}
}

// Stop ends replication and waits for the follower goroutines.
func (s *Source) Stop() {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.broadcast()
	s.wg.Wait()
}

// run is one follower's connect-stream-backoff loop.
func (s *Source) run(f *follower) {
	defer s.wg.Done()
	for attempt := 0; ; attempt++ {
		select {
		case <-s.done:
			return
		default:
		}
		err := s.stream(f)
		f.connected.Store(false)
		s.broadcast()
		select {
		case <-s.done:
			return
		default:
		}
		if err == nil {
			return // source stopped
		}
		if errors.Is(err, errFailed) {
			f.failed.Store(true)
			s.broadcast()
			s.logf("repl: follower %s dropped: %v", f.addr, err)
			return
		}
		f.retries.Add(1)
		s.logf("repl: follower %s: %v; retrying", f.addr, err)
		if s.overSpillBudget(f) {
			f.failed.Store(true)
			s.broadcast()
			s.logf("repl: follower %s dropped: backlog exceeds spill budget (%d records)", f.addr, s.cfg.SpillRecords)
			return
		}
		// Full-jitter backoff, capped.
		shift := attempt
		if shift > 16 {
			shift = 16
		}
		ceil := s.cfg.BackoffBase << shift
		if ceil > s.cfg.BackoffMax || ceil <= 0 {
			ceil = s.cfg.BackoffMax
		}
		select {
		case <-s.done:
			return
		case <-time.After(time.Duration(rand.Int63n(int64(ceil) + 1))):
		}
	}
}

// overSpillBudget reports whether a degraded follower's backlog has
// outgrown the spill budget.
func (s *Source) overSpillBudget(f *follower) bool {
	if !f.degraded.Load() {
		return false
	}
	next, _ := s.cfg.Log.ChainPos()
	return next-f.acked.Load() > s.cfg.SpillRecords
}

// stream runs one connection to the follower: handshake, catch-up,
// then live tailing. Returns nil only when the source is stopping.
func (s *Source) stream(f *follower) error {
	d := net.Dialer{Timeout: s.cfg.DialTimeout}
	conn, err := d.Dial("tcp", f.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() { // unblock reads/writes when the source stops
		select {
		case <-s.done:
			conn.Close()
		case <-stop:
		}
	}()

	conn.SetDeadline(time.Now().Add(s.cfg.DialTimeout))
	bw := bufio.NewWriter(conn)
	if err := wire.WriteMagic(bw); err != nil {
		return err
	}
	hello := wire.EncodeReplHello(wire.ReplHello{SourceID: s.cfg.Log.ID(), Key: s.cfg.Key})
	if err := wire.WriteFrame(bw, wire.FrameReplHello, hello); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	ft, payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return err
	}
	if ft == wire.FrameError {
		return fmt.Errorf("follower refused: %s", payload)
	}
	if ft != wire.FrameReplWelcome {
		return fmt.Errorf("unexpected %v frame in replication handshake", ft)
	}
	w, err := wire.DecodeReplWelcome(payload)
	if err != nil {
		return err
	}
	next, prev := s.cfg.Log.ChainPos()
	if w.Next > next {
		return fmt.Errorf("%w: replica at position %d is ahead of source chain end %d", errFailed, w.Next, next)
	}
	if w.Next == next && w.Next > 0 && w.Chain != prev {
		return fmt.Errorf("%w: replica chain hash diverges at position %d", errFailed, w.Next)
	}
	cursor := w.Next
	f.acked.Store(cursor)
	f.connected.Store(true)
	s.broadcast()
	conn.SetDeadline(time.Time{})

	wake := s.cfg.Log.Subscribe()
	verified := cursor == next // equal-length chains were hash-checked above
	var scratch []byte
	for {
		frames, newNext, err := s.cfg.Log.ReadFramed(cursor, 256<<10)
		if errors.Is(err, store.ErrCompacted) {
			return fmt.Errorf("%w: %v", errFailed, err)
		}
		if err != nil {
			return err
		}
		if len(frames) == 0 {
			// Caught up: a degraded follower is healthy again.
			if f.degraded.CompareAndSwap(true, false) {
				s.logf("repl: follower %s caught up at position %d", f.addr, cursor)
			}
			s.broadcast()
			select {
			case <-s.done:
				return nil
			case <-wake:
			case <-time.After(s.cfg.HeartbeatEvery):
				conn.SetWriteDeadline(time.Now().Add(s.cfg.DialTimeout))
				if err := wire.WriteFrame(conn, wire.FrameHeartbeat, nil); err != nil {
					return err
				}
			}
			continue
		}
		if !verified {
			// The first replayed record embeds its predecessor's hash —
			// it must be the chain hash the follower announced.
			_, _, _, framedPrev, _, derr := store.DecodeRecord(frames[0])
			if derr != nil {
				return derr
			}
			if cursor > 0 && framedPrev != w.Chain {
				return fmt.Errorf("%w: replica chain hash diverges at position %d", errFailed, cursor)
			}
			verified = true
		}
		if s.overSpillBudget(f) {
			return fmt.Errorf("%w: backlog exceeds spill budget (%d records)", errFailed, s.cfg.SpillRecords)
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.DialTimeout))
		for i, framed := range frames {
			scratch = wire.EncodeReplRecord(scratch[:0], wire.ReplRecord{Index: cursor + uint64(i), Framed: framed})
			if err := wire.WriteFrame(bw, wire.FrameReplRecord, scratch); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		s.recordsSent.Add(uint64(len(frames)))
		for f.acked.Load() < newNext {
			conn.SetReadDeadline(time.Now().Add(s.cfg.DialTimeout))
			ft, payload, err := wire.ReadFrame(conn, payload)
			if err != nil {
				return err
			}
			switch ft {
			case wire.FrameReplAck:
				acked, err := wire.DecodeReplAck(payload)
				if err != nil {
					return err
				}
				s.acksReceived.Add(1)
				if acked > f.acked.Load() {
					f.acked.Store(acked)
					s.broadcast()
				}
			case wire.FrameError:
				return fmt.Errorf("follower rejected record: %s", payload)
			default:
				return fmt.Errorf("unexpected %v frame awaiting ack", ft)
			}
		}
		cursor = newNext
	}
}

// SourceStats snapshots replication progress for /metrics.
type SourceStats struct {
	Followers      int
	Connected      int
	Degraded       int
	Failed         int
	RecordsSent    uint64
	AcksReceived   uint64
	Reconnects     uint64
	DegradedEvents uint64
	// Acked maps follower address to the next chain index it has not
	// yet applied.
	Acked map[string]uint64
}

// Stats snapshots the source.
func (s *Source) Stats() SourceStats {
	st := SourceStats{
		Followers:      len(s.followers),
		RecordsSent:    s.recordsSent.Load(),
		AcksReceived:   s.acksReceived.Load(),
		DegradedEvents: s.degradedEvents.Load(),
		Acked:          make(map[string]uint64, len(s.followers)),
	}
	for _, f := range s.followers {
		if f.connected.Load() {
			st.Connected++
		}
		if f.degraded.Load() {
			st.Degraded++
		}
		if f.failed.Load() {
			st.Failed++
		}
		st.Reconnects += f.retries.Load()
		st.Acked[f.addr] = f.acked.Load()
	}
	return st
}

// ReplicatedStore wraps a primary Log so every Put is synchronously
// replicated to healthy followers before it returns (see Sync). It is
// the store.Store a -replicate-to raced hands its server.
type ReplicatedStore struct {
	*store.Log
	src *Source
}

// NewReplicatedStore wraps lg with src.
func NewReplicatedStore(lg *store.Log, src *Source) *ReplicatedStore {
	return &ReplicatedStore{Log: lg, src: src}
}

// Source returns the replication source (for metrics).
func (r *ReplicatedStore) Source() *Source { return r.src }

// Put appends locally, then waits (bounded) for healthy followers.
func (r *ReplicatedStore) Put(rec store.Record) error {
	if err := r.Log.Put(rec); err != nil {
		return err
	}
	next, _ := r.Log.ChainPos()
	r.src.Sync(next)
	return nil
}

// Close stops replication, then closes the log.
func (r *ReplicatedStore) Close() error {
	r.src.Stop()
	return r.Log.Close()
}
