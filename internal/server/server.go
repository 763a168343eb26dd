// Package server is the raced session server: it accepts concurrent
// wire-protocol sessions (internal/wire), runs one detector engine per
// session, and answers each stream with the engine's Report.
//
// A live session is one goroutine: the one that reads its connection.
// The session's stream is already serialized by that connection, so the
// goroutine decodes each in-order block into one reused, block-sized
// slab and feeds it to the engine (Theorem 4's single consumer of one
// ordered stream) before it reads the next frame. A client that outruns
// its detector simply finds the reader busy detecting: TCP flow control
// pushes back to the sender, and server memory stays bounded at
// (live sessions) × (one decoded block plus detector state) no matter
// how fast clients write.
//
// Admission control caps live sessions (extra connections are refused
// with an Error frame, not queued), a janitor evicts sessions idle past
// IdleTimeout, and Shutdown drains gracefully: every open session stops
// reading, detects the frames it already read, and sends a Report frame
// flagged Partial — a coherent verdict for the prefix of the stream the
// detector consumed.
//
// # Fault tolerance
//
// The server speaks one wire protocol version (wire.Version); any other
// version byte in the magic is refused with the documented
// wire.ErrVersion handshake refusal. A session numbers its EventsBlock
// frames with contiguous sequence numbers and the server acknowledges
// the highest contiguously detected sequence after every EventsBlock
// (and Heartbeat) frame: a block is fed to the engine before its Ack is
// written, so an Ack means the engine has seen every event up to that
// sequence. When a connection dies mid-stream the session is not torn
// down: it is suspended — engine and sequence cursor intact — for up to
// ResumeWindow. A reconnecting client presents the
// resume token from its Welcome; the server adopts the new connection,
// tells the client the next sequence it expects, and the client resends
// from there. Duplicate sequences (resent batches the server already
// detected) are discarded, so the engine sees every event exactly once
// and the verdict is byte-identical to an undisturbed run — any prefix
// of the stream is a coherent detector state, so re-extending it from
// the last acknowledged point is always safe. Reports of finished
// sessions are cached for ResumeWindow so a client that lost the
// connection after Finish but before the Report can resume and still
// collect it.
//
// # Wire compression
//
// Clients ship event batches as compressed EventsBlock frames — the
// only event framing — and every session feeds one serial detector.
// Blocks carry contiguous sequence numbers and are acked, deduplicated
// and resumed at block boundaries; each block is self-contained, so a
// block resent to a restarted server decodes to the same events.
//
// # Durable reports, tenants and quotas
//
// Every cleanly finished session's Report is persisted to
// Config.Store before the Report frame is written, so an acked verdict
// survives the process: a client that lost the Report — even to a
// server SIGKILL — resumes by token against the restarted server and
// collects the identical bytes. The default backend is the in-memory
// store (the report cache this server always had, retained for
// ResumeWindow); a raced started with -store-dir plugs in the durable
// hash-chained log (internal/store), whose open-time scan refuses, with
// a typed *store.TamperError, to serve anything at or past the first
// damaged record. Retention is the store's: the janitor calls Compact
// instead of sweeping a cache map.
//
// With Config.Tenants set the server requires a "tenant:key"
// credential in the Hello (wire.CapTenant); a missing or wrong
// credential is refused with wire.ErrAuth, and per-tenant session and
// storage quotas are enforced at admission with wire.ErrQuota — both
// under wire.HandshakeRefusedPrefix but classified terminal by
// clients. One tenant exhausting its quota never disturbs another:
// admission counts sessions and stored bytes per tenant.
package server

import (
	"bufio"
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliflags"
	"repro/internal/fj"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/store"
	"repro/internal/wire"

	race2d "repro"
)

// Config tunes a Server. The zero value is usable: 64 sessions, no idle
// eviction, one-minute resume window.
type Config struct {
	// MaxSessions caps concurrently live sessions; connections beyond
	// the cap are refused with an Error frame. <= 0 means 64.
	MaxSessions int
	// IdleTimeout evicts sessions that deliver no frame for this long.
	// Zero disables eviction. (Clients send heartbeats, so a live but
	// quiet client is not evicted.)
	IdleTimeout time.Duration
	// ResumeWindow bounds how long a suspended session (and the
	// cached Report of a finished one) survives awaiting a resume.
	// <= 0 means DefaultResumeWindow.
	ResumeWindow time.Duration
	// Store persists finished Reports before they are acked and serves
	// post-restart retrieval by resume token. Nil selects an in-memory
	// store retained for ResumeWindow — the cache semantics this server
	// always had. The server owns the store it is given and closes it on
	// Close/Shutdown.
	Store store.Store
	// Tenants, when non-empty, turns on tenant auth: every Hello must
	// carry a "tenant:key" credential matching this table, and the named
	// quotas are enforced at admission. Empty runs the server open, with
	// every session under the anonymous "" tenant. This is only the
	// table the server STARTS with: SetTenants (the admin surface, or a
	// SIGHUP reload of -tenant-keys-file) swaps it live.
	Tenants map[string]Tenant
	// RevokeGrace is how long the in-flight sessions of a tenant removed
	// by SetTenants keep running before the janitor evicts them
	// (<= 0 means DefaultRevokeGrace). New handshakes of a revoked
	// tenant are refused immediately regardless.
	RevokeGrace time.Duration
	// AdminKey, when non-empty, enables the /admin endpoints on
	// Handler() behind "Authorization: Bearer <AdminKey>". Empty keeps
	// the admin surface disabled (requests get 403).
	AdminKey string
	// Replicas, when non-nil, makes this server a replication follower:
	// connections opening with FrameReplHello are served as replication
	// streams into the replica set, and resume-by-token falls back to
	// the replicas when the primary store does not know a token.
	Replicas *repl.ReplicaSet
	// ReplKey is the credential FrameReplHello must present when
	// Replicas is set ("" accepts unauthenticated sources).
	ReplKey string
	// Logf, when non-nil, receives one line per session lifecycle event.
	Logf func(format string, args ...any)
}

// Tenant is one tenant's credential and quotas.
type Tenant struct {
	// Key is the shared secret the client presents as "tenant:key".
	Key string
	// MaxSessions caps the tenant's concurrently live sessions
	// (0 = unlimited). Exhaustion refuses the tenant's new sessions with
	// wire.ErrQuota without disturbing other tenants.
	MaxSessions int
	// MaxStoreBytes caps the tenant's live stored report bytes
	// (0 = unlimited). A tenant at the cap is refused new sessions until
	// retention reclaims space.
	MaxStoreBytes int64
}

// DefaultMaxSessions is the live-session cap used when Config leaves
// MaxSessions unset.
const DefaultMaxSessions = 64

// DefaultResumeWindow is the suspended-session / cached-report lifetime
// used when Config leaves ResumeWindow unset.
const DefaultResumeWindow = time.Minute

// DefaultRevokeGrace is how long a revoked tenant's in-flight sessions
// keep running (Config.RevokeGrace unset): long enough to finish a
// short stream, short enough that revocation means something.
const DefaultRevokeGrace = 30 * time.Second

// drainGrace bounds how long a draining or finishing session waits for
// the peer while discarding its remaining input or writing a frame.
const drainGrace = 2 * time.Second

// Janitor period clamp: the janitor wakes at a quarter of the smallest
// timeout it enforces, but never busier than minJanitorPeriod (a tiny
// IdleTimeout must not turn the janitor into a spin loop) and never
// lazier than maxJanitorPeriod (so long windows still expire promptly
// after their deadline).
const (
	minJanitorPeriod = 10 * time.Millisecond
	maxJanitorPeriod = time.Second
)

// normalized fills Config defaults.
func (c Config) normalized() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.ResumeWindow <= 0 {
		c.ResumeWindow = DefaultResumeWindow
	}
	if c.RevokeGrace <= 0 {
		c.RevokeGrace = DefaultRevokeGrace
	}
	return c
}

// janitorPeriod is the eviction/expiry sweep interval for this config,
// clamped to [minJanitorPeriod, maxJanitorPeriod].
func (c Config) janitorPeriod() time.Duration {
	shortest := c.ResumeWindow
	if c.IdleTimeout > 0 && c.IdleTimeout < shortest {
		shortest = c.IdleTimeout
	}
	period := shortest / 4
	if period < minJanitorPeriod {
		period = minJanitorPeriod
	}
	if period > maxJanitorPeriod {
		period = maxJanitorPeriod
	}
	return period
}

// Server is a raced session server. Create with New, run with Serve,
// stop with Shutdown (graceful) or Close (abrupt).
type Server struct {
	cfg       Config
	tokenBase uint64
	store     store.Store

	mu             sync.Mutex
	ln             net.Listener
	sessions       map[uint64]*session
	tenantSessions map[string]int // live sessions per tenant
	nextID         uint64
	closed         bool
	done           chan struct{}
	wg             sync.WaitGroup

	// Live tenant table. Guarded by tmu, not mu: SetTenants (the admin
	// surface, or a SIGHUP reload) swaps it while sessions are serving,
	// and the handshake path only ever takes the read side. Lock order:
	// mu may be held while taking tmu (admission), never the reverse
	// while blocking on mu.
	tmu                sync.RWMutex
	tenants            map[string]Tenant
	tenantAuthRefusals map[string]uint64 // keyed by names in the table: bounded cardinality

	tenantReloads     atomic.Uint64
	tenantRevocations atomic.Uint64

	// Wire-level counters (atomic: bumped on every frame).
	sessionsTotal     atomic.Uint64
	sessionsRejected  atomic.Uint64
	evictions         atomic.Uint64
	frames            atomic.Uint64
	wireBytes         atomic.Uint64
	handshakeRefusals atomic.Uint64
	resumes           atomic.Uint64
	dupsDropped       atomic.Uint64
	authFailures      atomic.Uint64
	quotaRefusals     atomic.Uint64
	storePutErrors    atomic.Uint64

	// Block-compression accounting: block count, payload bytes on the wire, and the raw record-form bytes
	// those blocks decoded to — the bandwidth the codec saved.
	blocks          atomic.Uint64
	wireBytesBlocks atomic.Uint64
	wireBytesRaw    atomic.Uint64

	// Events of in-order blocks delivered to session detectors.
	eventsDetected atomic.Uint64
}

// New returns an idle Server.
func New(cfg Config) *Server {
	var b [8]byte
	rand.Read(b[:])
	cfg = cfg.normalized()
	st := cfg.Store
	if st == nil {
		// The default store is the finished-report cache this server
		// always had: in-memory, retained for ResumeWindow.
		st = store.NewMemory(cfg.ResumeWindow)
	}
	tenants := make(map[string]Tenant, len(cfg.Tenants))
	for name, t := range cfg.Tenants {
		tenants[name] = t
	}
	return &Server{
		cfg:                cfg,
		tokenBase:          binary.LittleEndian.Uint64(b[:]),
		store:              st,
		sessions:           make(map[uint64]*session),
		tenantSessions:     make(map[string]int),
		tenants:            tenants,
		tenantAuthRefusals: make(map[string]uint64),
		done:               make(chan struct{}),
	}
}

// tenantsEnabled reports whether tenant auth is currently on (the live
// table is non-empty).
func (s *Server) tenantsEnabled() bool {
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	return len(s.tenants) > 0
}

// lookupTenant resolves a name against the live table.
func (s *Server) lookupTenant(name string) (Tenant, bool) {
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	t, ok := s.tenants[name]
	return t, ok
}

// Tenants snapshots the live tenant table (the admin GET surface; also
// handy for tests). Mutating the returned map changes nothing.
func (s *Server) Tenants() map[string]Tenant {
	s.tmu.RLock()
	defer s.tmu.RUnlock()
	out := make(map[string]Tenant, len(s.tenants))
	for name, t := range s.tenants {
		out[name] = t
	}
	return out
}

// TenantTable converts parsed -tenant-keys entries into the table
// shape Config.Tenants and SetTenants take.
func TenantTable(specs []cliflags.TenantSpec) map[string]Tenant {
	table := make(map[string]Tenant, len(specs))
	for _, t := range specs {
		table[t.Name] = Tenant{Key: t.Key, MaxSessions: t.MaxSessions, MaxStoreBytes: t.MaxStoreBytes}
	}
	return table
}

// SetTenants atomically replaces the live tenant table — the admin PUT
// surface and the SIGHUP reload of -tenant-keys-file both land here.
// New handshakes see the new table immediately: a rotated key is
// required at once, a removed tenant is refused at once. In-flight
// sessions are untouched by a key rotation (they already
// authenticated); sessions of a tenant REMOVED from the table get a
// revoke deadline RevokeGrace away, enforced by the janitor — long
// enough to finish a short stream, short enough that revocation means
// something. Swapping in an empty table turns tenant auth off entirely
// and revokes nobody.
func (s *Server) SetTenants(table map[string]Tenant) {
	next := make(map[string]Tenant, len(table))
	for name, t := range table {
		next[name] = t
	}
	s.tmu.Lock()
	s.tenants = next
	// Keep the refusal-counter cardinality bounded by the table.
	for name := range s.tenantAuthRefusals {
		if _, ok := next[name]; !ok {
			delete(s.tenantAuthRefusals, name)
		}
	}
	s.tmu.Unlock()
	s.tenantReloads.Add(1)

	if len(next) == 0 {
		return // auth turned off: every session is welcome
	}
	deadline := time.Now().Add(s.cfg.RevokeGrace)
	s.mu.Lock()
	for _, sess := range s.sessions {
		if _, ok := next[sess.tenant]; ok {
			// Present (possibly with a rotated key, possibly re-added
			// within a pending grace window): not revoked.
			sess.revokeDeadline = time.Time{}
		} else if sess.revokeDeadline.IsZero() {
			sess.revokeDeadline = deadline
			s.logf("session %d: tenant %q revoked, evicting in %v", sess.id, sess.tenant, s.cfg.RevokeGrace)
		}
	}
	s.mu.Unlock()
}

// countTenantRefusal bumps the per-tenant auth-refusal counter, but
// only for names present in the live table — an attacker probing
// random names must not grow the metric cardinality.
func (s *Server) countTenantRefusal(name string) {
	s.tmu.Lock()
	if _, ok := s.tenants[name]; ok {
		s.tenantAuthRefusals[name]++
	}
	s.tmu.Unlock()
}

// Store returns the server's report store (the configured one, or the
// default in-memory store).
func (s *Server) Store() store.Store { return s.store }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts sessions on ln until Shutdown or Close. It always
// returns a non-nil error; after a clean shutdown the error is
// net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	// Shutdown and Close set closed under s.mu before they wait on
	// s.wg, and every Add below happens under s.mu while closed is
	// false, so no Add can land while a Wait is under way (which
	// sync.WaitGroup forbids: it panics). A connection accepted as the
	// server closes is closed unserved.
	s.wg.Add(1)
	s.mu.Unlock()

	go s.janitor()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Addr returns the listener address, once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops accepting, asks every live session to drain — each
// detects the frames it already read and sends a Partial report — and
// waits for them to finish, up to ctx's deadline. Suspended sessions
// have no peer to report to and are discarded.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginClose()
	s.mu.Lock()
	for _, sess := range s.sessions {
		if sess.state == stateSuspended {
			s.abandonLocked(sess)
		} else {
			sess.beginDrain(false)
		}
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return s.closeStores()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// closeStores closes the report store and, on a follower, the hosted
// replica set.
func (s *Server) closeStores() error {
	err := s.store.Close()
	if s.cfg.Replicas != nil {
		if rerr := s.cfg.Replicas.Close(); err == nil {
			err = rerr
		}
	}
	return err
}

// Close abruptly terminates the server and every live session.
func (s *Server) Close() error {
	s.beginClose()
	s.mu.Lock()
	for _, sess := range s.sessions {
		if sess.state == stateSuspended {
			s.abandonLocked(sess)
		} else if sess.conn != nil {
			sess.conn.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.closeStores()
}

func (s *Server) beginClose() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
		if s.ln != nil {
			s.ln.Close()
		}
	}
	s.mu.Unlock()
}

// janitor evicts sessions idle past IdleTimeout, expires suspended
// sessions past their resume deadline, and runs the store's retention
// compaction — expired persisted reports stop being served by the
// store's own Get filter; Compact reclaims their space.
func (s *Server) janitor() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.janitorPeriod())
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		cutoff := now.Add(-s.cfg.IdleTimeout).UnixNano()
		s.mu.Lock()
		for _, sess := range s.sessions {
			revoked := !sess.revokeDeadline.IsZero() && now.After(sess.revokeDeadline)
			switch {
			case sess.state == stateSuspended:
				if revoked || now.After(sess.resumeDeadline) {
					if revoked {
						s.tenantRevocations.Add(1)
						s.logf("session %d: tenant %q revoked, abandoning", sess.id, sess.tenant)
					} else {
						s.logf("session %d: resume window expired", sess.id)
					}
					s.abandonLocked(sess)
				}
			case revoked:
				s.tenantRevocations.Add(1)
				s.logf("session %d: tenant %q revoked, evicting", sess.id, sess.tenant)
				sess.revokeDeadline = time.Time{} // count the eviction once
				sess.beginDrain(true)
			case s.cfg.IdleTimeout > 0 && sess.lastActive.Load() < cutoff:
				sess.beginDrain(true)
			}
		}
		s.mu.Unlock()
		if err := s.store.Compact(); err != nil && !errors.Is(err, store.ErrTampered) {
			s.logf("store: compact: %v", err)
		}
	}
}

// abandonLocked discards a suspended session that can no longer be
// resumed (window expired, or the server is going down). Caller holds
// s.mu.
func (s *Server) abandonLocked(sess *session) {
	if sess.state == stateDone {
		return
	}
	sess.state = stateDone
	s.dropSessionLocked(sess)
}

// errDraining refuses fresh sessions on a draining (or closed) server.
// It is sent in the retryable HandshakeRefusedPrefix class: during a
// rolling drain the client should retry — a cluster gateway reroutes
// the retry to a healthy backend once its prober notices the drain —
// rather than treat the refusal as terminal.
var errDraining = errors.New("raced: draining (not accepting sessions)")

// errSessionLimit refuses fresh sessions at the MaxSessions cap. It is
// terminal for the client: the server is healthy, just full, and
// retrying the same server is the caller's (or gateway's) decision.
var errSessionLimit = errors.New("raced: session limit reached")

// authenticate resolves the session's tenant from the Hello credential.
// An open server (empty live tenant table) admits everyone under the
// anonymous "" tenant and ignores the credential. A tenant-keyed server
// requires a "tenant:key" credential matching the LIVE table — the
// one SetTenants last installed, so a rotation or revocation bites the
// very next handshake — anything else is wire.ErrAuth. The error text
// never says which part of the credential failed, and the key
// comparison is constant-time.
func (s *Server) authenticate(hello wire.Hello) (string, error) {
	if !s.tenantsEnabled() {
		return "", nil
	}
	if hello.Auth == "" {
		s.authFailures.Add(1)
		return "", fmt.Errorf("%w (tenant credential required)", wire.ErrAuth)
	}
	name, key, ok := strings.Cut(hello.Auth, ":")
	tenant, found := s.lookupTenant(name)
	if !ok || !found || subtle.ConstantTimeCompare([]byte(key), []byte(tenant.Key)) != 1 {
		s.authFailures.Add(1)
		s.countTenantRefusal(name)
		return "", wire.ErrAuth
	}
	return name, nil
}

// admit registers a new session, or refuses it with errDraining,
// errSessionLimit, or (per-tenant quota exhaustion) wire.ErrQuota.
func (s *Server) admit(conn net.Conn, hello wire.Hello, tenant string) (*session, error) {
	// Tenant quota and capability decisions read the live table (and the
	// store) before taking s.mu: both have their own locks and never call
	// back into the server.
	t, keyed := s.lookupTenant(tenant)
	tenantsOn := s.tenantsEnabled()
	var storedBytes int64
	if keyed && t.MaxStoreBytes > 0 {
		storedBytes = s.store.TenantBytes(tenant)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errDraining
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, errSessionLimit
	}
	if keyed {
		if t.MaxSessions > 0 && s.tenantSessions[tenant] >= t.MaxSessions {
			s.quotaRefusals.Add(1)
			return nil, fmt.Errorf("%w: tenant %q at %d sessions", wire.ErrQuota, tenant, t.MaxSessions)
		}
		if t.MaxStoreBytes > 0 && storedBytes >= t.MaxStoreBytes {
			s.quotaRefusals.Add(1)
			return nil, fmt.Errorf("%w: tenant %q at %d stored bytes", wire.ErrQuota, tenant, storedBytes)
		}
	}
	s.nextID++
	var granted uint64
	if tenantsOn {
		granted = wire.CapTenant
	}
	sess := &session{
		id:       s.nextID,
		token:    s.tokenBase ^ (s.nextID * 0x9E3779B97F4A7C15),
		caps:     hello.Caps & granted,
		tenant:   tenant,
		srv:      s,
		state:    stateRunning,
		conn:     conn,
		detached: make(chan struct{}),
		nextSeq:  1,
		// The slab holds a default block: DecodeBlockInto appends, so a
		// smaller slab would regrow on every fresh session's first blocks.
		slab: make([]fj.Event, 0, wire.DefaultBlockEvents),
	}
	sess.lastActive.Store(time.Now().UnixNano())
	s.sessions[sess.id] = sess
	s.tenantSessions[tenant]++
	s.sessionsTotal.Add(1)
	return sess, nil
}

// retire removes a finished session.
func (s *Server) retire(sess *session) {
	s.mu.Lock()
	sess.state = stateDone
	s.dropSessionLocked(sess)
	s.mu.Unlock()
}

// dropSessionLocked removes a session from the live table and releases
// its slot in the per-tenant session gauge. Caller holds s.mu.
func (s *Server) dropSessionLocked(sess *session) {
	if _, ok := s.sessions[sess.id]; !ok {
		return
	}
	delete(s.sessions, sess.id)
	if n := s.tenantSessions[sess.tenant] - 1; n > 0 {
		s.tenantSessions[sess.tenant] = n
	} else {
		delete(s.tenantSessions, sess.tenant)
	}
}

// refuse answers a connection that failed the handshake with a typed
// wire error and counts the refusal.
func (s *Server) refuse(conn net.Conn, err error) {
	s.handshakeRefusals.Add(1)
	s.logf("handshake refused from %v: %v", conn.RemoteAddr(), err)
	writeError(conn, wire.HandshakeRefusedPrefix+err.Error())
}

// writeError sends msg as an Error frame, bounded by drainGrace. The
// frame is the connection's last word, so a write failure is not
// reported: the peer is gone either way.
func writeError(conn net.Conn, msg string) {
	conn.SetWriteDeadline(time.Now().Add(drainGrace))
	wire.WriteFrame(conn, wire.FrameError, []byte(msg))
}

// handshake reads the magic and opening frame off a fresh connection;
// wire.ReadMagic refuses any version but the one spoken. A session
// opens with FrameHello, decoded into the returned wire.Hello; a
// replication source opens with FrameReplHello, whose raw payload is
// returned instead (non-nil) for the replica set to verify —
// replication shares the listener, so the split happens here, on the
// first frame's type.
func (s *Server) handshake(conn net.Conn) (wire.Hello, []byte, error) {
	if err := wire.ReadMagic(conn); err != nil {
		return wire.Hello{}, nil, err
	}
	ft, payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return wire.Hello{}, nil, fmt.Errorf("raced: reading hello: %w", err)
	}
	if ft == wire.FrameReplHello && s.cfg.Replicas != nil {
		return wire.Hello{}, payload, nil
	}
	if ft != wire.FrameHello {
		return wire.Hello{}, nil, fmt.Errorf("raced: expected hello frame, got %v", ft)
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		return wire.Hello{}, nil, fmt.Errorf("raced: malformed hello: %w", err)
	}
	return hello, nil, nil
}

// handle runs one connection from accept to close: handshake, then
// either a fresh session, a resume of a suspended one, an inbound
// replication stream, or a refusal.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	hello, replHello, err := s.handshake(conn)
	if err != nil {
		if errors.Is(err, wire.ErrEmptyHandshake) {
			// A connect immediately closed is a TCP health probe (load
			// balancers, cluster gateways without a metrics port), not a
			// client that garbled its handshake: close silently instead
			// of polluting the refusal counter and the log.
			return
		}
		s.refuse(conn, err)
		return
	}
	if replHello != nil {
		// A replication source, not a client. The replica set owns the
		// stream from here: credential check, welcome-at-position,
		// chain-verified applies. Sessions and replication multiplex on
		// one listener so a follower needs no extra port.
		if err := s.cfg.Replicas.Serve(conn, s.cfg.ReplKey, replHello); err != nil &&
			!errors.Is(err, io.EOF) {
			s.logf("replication from %v: %v", conn.RemoteAddr(), err)
		}
		return
	}
	tenant, err := s.authenticate(hello)
	if err != nil {
		// Auth refusals ride the handshake-refusal prefix like every
		// other pre-session refusal, but carry the ErrAuth text, which
		// clients classify as terminal: resending the same credential
		// cannot succeed.
		s.sessionsRejected.Add(1)
		s.logf("auth refused from %v: %v", conn.RemoteAddr(), err)
		writeError(conn, wire.HandshakeRefusedPrefix+err.Error())
		return
	}
	if hello.Token != 0 {
		s.resume(conn, hello, tenant)
		return
	}

	engineName := hello.Engine
	if engineName == "" {
		engineName = race2d.Engine2D.String()
	}
	eng, err := race2d.ParseEngine(engineName)
	if err != nil {
		writeError(conn, err.Error())
		return
	}
	sess, err := s.admit(conn, hello, tenant)
	if err != nil {
		s.sessionsRejected.Add(1)
		msg := err.Error()
		if errors.Is(err, errDraining) || errors.Is(err, wire.ErrQuota) {
			// Quota refusals share the prefix but, like auth, carry a
			// text clients classify as terminal.
			msg = wire.HandshakeRefusedPrefix + msg
		}
		writeError(conn, msg)
		return
	}
	sess.detector = race2d.NewEngineSink(eng)
	s.logf("session %d: open (engine=%s) from %v", sess.id, eng, conn.RemoteAddr())
	sess.serve(conn)
}

// resume hands a reconnecting client back its suspended session (or
// its persisted Report, if the session already finished — served from
// the store, so it survives a server restart).
//
// A client often notices a dead connection before the server does — its
// first reconnect has no backoff — so its token can arrive while the
// session is still attached to the old connection. The token proves
// ownership: resume closes the old connection, waits for its frame loop
// to suspend the session (or to finish it, if its Finish was already
// read), and looks again.
func (s *Server) resume(conn net.Conn, hello wire.Hello, tenant string) {
	for attempt := 0; ; attempt++ {
		if s.resumeFinished(conn, hello, tenant) {
			return
		}
		s.mu.Lock()
		var target *session
		for _, sess := range s.sessions {
			if sess.token == hello.Token && sess.tenant == tenant {
				target = sess
				break
			}
		}
		if target != nil && target.state == stateSuspended {
			// Adopt: the suspended serve loop has fully exited (suspension
			// is its last act, under this lock), so the session is ours.
			// The session re-pins to the capabilities of the new handshake
			// (intersected with what was granted before), so a client that
			// reconnected offering less gets no stale capability.
			target.state = stateRunning
			target.conn = conn
			target.detached = make(chan struct{})
			target.caps &= hello.Caps
			s.mu.Unlock()
			s.resumes.Add(1)
			target.lastActive.Store(time.Now().UnixNano())
			s.logf("session %d: resumed from %v (next seq %d)", target.id, conn.RemoteAddr(), target.nextSeq)
			target.serve(conn)
			return
		}
		if target == nil || attempt > 0 {
			s.mu.Unlock()
			break
		}
		old, detached := target.conn, target.detached
		s.mu.Unlock()
		s.logf("session %d: resume from %v supersedes its old connection", target.id, conn.RemoteAddr())
		old.Close()
		select {
		case <-detached:
		case <-time.After(drainGrace):
		}
	}
	s.logf("resume refused from %v: unknown token", conn.RemoteAddr())
	writeError(conn, wire.ErrUnknownResume.Error())
}

// resumeFinished answers a resume from the report store (or a hosted
// replica): the persisted Report of a finished session, an auth refusal
// for a token of another tenant, or the typed tamper refusal. Reports
// whether it answered; false means the store does not know the token.
func (s *Server) resumeFinished(conn net.Conn, hello wire.Hello, tenant string) bool {
	rec, err := s.store.Get(hello.Token)
	if err != nil && !errors.Is(err, store.ErrTampered) && s.cfg.Replicas != nil {
		// The primary store does not know the token, but a replica this
		// follower hosts might: a client whose home backend died fetches
		// its report from any follower of that backend. Tenant ownership
		// is enforced below exactly as for a home-store hit.
		if rrec, rerr := s.cfg.Replicas.Get(hello.Token); rerr == nil {
			rec, err = rrec, nil
		}
	}
	switch {
	case err == nil:
		if s.tenantsEnabled() && rec.Tenant != tenant {
			// The token exists but belongs to another tenant: refuse as
			// an auth failure, not a not-found — and certainly not with
			// the other tenant's report.
			s.authFailures.Add(1)
			s.logf("resume refused from %v: token crosses tenants", conn.RemoteAddr())
			writeError(conn, wire.HandshakeRefusedPrefix+wire.ErrAuth.Error())
			return true
		}
		s.resumes.Add(1)
		s.logf("session %d: resume of finished session, re-sending report", rec.Session)
		conn.SetWriteDeadline(time.Now().Add(drainGrace))
		// The resumed stream is done — no more event frames — so no
		// capability needs granting.
		welcome := wire.Welcome{Session: rec.Session, Token: hello.Token, NextSeq: rec.NextSeq}
		if wire.WriteFrame(conn, wire.FrameWelcome, wire.EncodeWelcomeV3(welcome)) == nil {
			wire.WriteFrame(conn, wire.FrameReport, wire.EncodeReport(rec.Flags, rec.JSON))
		}
		return true
	case errors.Is(err, store.ErrTampered):
		// The store cannot prove anything about this token: the log is
		// damaged at or before where the record would live. Refuse with
		// the typed tamper text — a terminal, diagnosable error — rather
		// than a misleading "unknown token" or a crash.
		s.logf("resume refused from %v: %v", conn.RemoteAddr(), err)
		writeError(conn, err.Error())
		return true
	}
	return false
}

// Draining reports whether the server has stopped accepting fresh
// sessions (Shutdown or Close has begun). Cluster gateways poll this —
// via /healthz, which turns it into a 503 "draining" — to stop routing
// new sessions to a backend that is on its way out while its live
// sessions finish their drain reports.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Live returns the number of currently live sessions.
func (s *Server) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Stats snapshots the server's wire-level counters (live sessions
// included).
func (s *Server) Stats() obs.Stats {
	return obs.Stats{
		EventsBuffered:    s.eventsDetected.Load(),
		Sessions:          s.sessionsTotal.Load(),
		SessionsRejected:  s.sessionsRejected.Load(),
		Evictions:         s.evictions.Load(),
		Frames:            s.frames.Load(),
		WireBytes:         s.wireBytes.Load(),
		HandshakeRefusals: s.handshakeRefusals.Load(),
		Resumes:           s.resumes.Load(),
		DupsDropped:       s.dupsDropped.Load(),
		WireBlocks:        s.blocks.Load(),
		WireBytesBlocks:   s.wireBytesBlocks.Load(),
		WireBytesRaw:      s.wireBytesRaw.Load(),
	}
}

// ---- per-session frame loop --------------------------------------------

type sessState int

const (
	stateRunning   sessState = iota // a connection is attached and serving
	stateSuspended                  // connection lost, awaiting resume
	stateDone                       // finished or torn down
)

type session struct {
	id     uint64
	token  uint64
	caps   uint64 // granted capabilities
	tenant string // authenticated tenant ("" on an open server)
	srv    *Server

	// Touched only by the goroutine serving the session's current
	// connection; suspend and adoption hand both over under srv.mu.
	detector race2d.StreamDetector
	slab     []fj.Event // one decoded block, reused for every block

	lastActive atomic.Int64 // unix nanos of the last frame
	draining   atomic.Bool  // shutdown: stop reading, report the prefix
	evicting   atomic.Bool  // idle: stop reading, refuse with an error

	// Guarded by srv.mu. nextSeq is only touched by the (single) serving
	// goroutine while running; it is published under the lock at suspend
	// and read back under it at adoption, which orders the handoff.
	state          sessState
	conn           net.Conn      // nil while suspended
	detached       chan struct{} // closed when the loop serving conn exits
	nextSeq        uint64        // next expected events sequence
	resumeDeadline time.Time
	// revokeDeadline, when non-zero, marks this session's tenant as
	// removed from the live table: the janitor evicts the session once
	// the grace window passes. Guarded by srv.mu like state.
	revokeDeadline time.Time
}

// beginDrain asks the session's reader to stop. The flag is set before
// the read deadline so the reader, once unblocked, always observes why.
// Called under srv.mu (never for suspended sessions), possibly from the
// janitor and Shutdown concurrently.
func (sess *session) beginDrain(evict bool) {
	if evict {
		sess.evicting.Store(true)
	} else {
		sess.draining.Store(true)
	}
	if sess.conn != nil {
		sess.conn.SetReadDeadline(time.Now())
	}
}

// interrupted reports whether a read error is the deadline poke from
// beginDrain rather than a real peer failure.
func (sess *session) interrupted(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded) &&
		(sess.draining.Load() || sess.evicting.Load())
}

// suspend parks a session whose connection died, keeping its engine
// and sequence cursor for ResumeWindow. Reports whether the session was
// suspended; false means the server is closing and the caller must
// tear down instead.
func (sess *session) suspend(nextSeq uint64, cause error) bool {
	srv := sess.srv
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return false
	}
	sess.state = stateSuspended
	sess.conn = nil
	sess.nextSeq = nextSeq
	sess.resumeDeadline = time.Now().Add(srv.cfg.ResumeWindow)
	srv.mu.Unlock()
	srv.logf("session %d: suspended (%v), resumable for %v at seq %d",
		sess.id, cause, srv.cfg.ResumeWindow, nextSeq)
	return true
}

// serve runs the frame loop for one connection attached to this
// session. It may be called again later with the next connection after
// a suspend/resume cycle.
func (sess *session) serve(conn net.Conn) {
	srv := sess.srv

	srv.mu.Lock()
	nextSeq := sess.nextSeq
	defer close(sess.detached)
	srv.mu.Unlock()

	welcome := wire.Welcome{Session: sess.id, Token: sess.token, NextSeq: nextSeq, Caps: sess.caps}
	conn.SetWriteDeadline(time.Now().Add(drainGrace))
	if err := wire.WriteFrame(conn, wire.FrameWelcome, wire.EncodeWelcomeV3(welcome)); err != nil {
		srv.logf("session %d: welcome: %v", sess.id, err)
		if sess.suspend(nextSeq, err) {
			return
		}
		sess.teardown(conn, "")
		return
	}

	finished := false
	protoErr := false // the peer broke the protocol; do not suspend
	var readErr error
	var blockDec wire.BlockDecoder // per-connection; blocks are self-contained
	scratch := make([]byte, 0, 64<<10)
	var ackBuf []byte
	// Frames are read through a buffer: header, payload and CRC cost
	// one conn read per buffer fill, not three per frame. The handshake
	// read the Hello unbuffered, and the client sends nothing more until
	// the Welcome, so no stream bytes are stranded in another reader.
	br := bufio.NewReaderSize(conn, 64<<10)
frames:
	for {
		ft, payload, err := wire.ReadFrame(br, scratch)
		if err != nil {
			if !sess.interrupted(err) {
				readErr = err
			}
			break
		}
		if cap(payload) > cap(scratch) {
			scratch = payload[:0]
		}
		sess.lastActive.Store(time.Now().UnixNano())
		switch ft {
		case wire.FrameEventsBlock:
			srv.frames.Add(1)
			srv.wireBytes.Add(uint64(len(payload)))
			seq, slab, rawLen, err := blockDec.DecodeBlockInto(sess.slab[:0], payload)
			sess.slab = slab
			if err != nil {
				readErr, protoErr = err, true
				break frames
			}
			srv.blocks.Add(1)
			srv.wireBytesBlocks.Add(uint64(len(payload)))
			srv.wireBytesRaw.Add(uint64(rawLen))
			switch {
			case seq < nextSeq:
				// Duplicate of an already-detected batch (a resend
				// raced an ack): the engine must see it exactly once.
				srv.dupsDropped.Add(1)
			case seq == nextSeq:
				// Detect before the Ack, on this goroutine. Per-event
				// delivery: the engine sees the exact call sequence of
				// a local run, so its Stats match byte for byte.
				for _, e := range slab {
					sess.detector.Event(e)
				}
				srv.eventsDetected.Add(uint64(len(slab)))
				nextSeq++
			default:
				readErr = fmt.Errorf("raced: sequence gap: got %d, want %d", seq, nextSeq)
				protoErr = true
				break frames
			}
			if ackBuf, err = sess.writeAck(conn, ackBuf, nextSeq-1); err != nil {
				readErr = err
				break frames
			}
		case wire.FrameHeartbeat:
			// Keepalive: answer with the current ack so the client's
			// dead-peer detector sees a live server.
			if ackBuf, err = sess.writeAck(conn, ackBuf, nextSeq-1); err != nil {
				readErr = err
				break frames
			}
		case wire.FrameFinish:
			finished = true
			break frames
		default:
			readErr = fmt.Errorf("server: unexpected %v frame mid-stream", ft)
			protoErr = true
			break frames
		}
	}

	// A dead transport suspends the session — everything else tears it
	// down.
	if readErr != nil && !finished && !protoErr &&
		!sess.evicting.Load() && !sess.draining.Load() {
		if sess.suspend(nextSeq, readErr) {
			return
		}
	}
	sess.finish(conn, nextSeq, finished, readErr)
}

// writeAck sends an Ack frame naming the highest contiguously detected
// sequence (0 = nothing yet), framed into buf, which it returns for
// reuse.
func (sess *session) writeAck(conn net.Conn, buf []byte, seq uint64) ([]byte, error) {
	buf = wire.AppendFrame(buf[:0], wire.FrameAck, wire.EncodeAck(seq))
	conn.SetWriteDeadline(time.Now().Add(drainGrace))
	_, err := conn.Write(buf)
	return buf, err
}

// teardown retires the session, sending errMsg as a final Error frame
// unless it is empty.
func (sess *session) teardown(conn net.Conn, errMsg string) {
	if errMsg != "" {
		writeError(conn, errMsg)
	}
	sess.srv.retire(sess)
}

// finish resolves the session on its terminal connection: eviction
// notice, error report, or the engine's Report (flagged partial when
// the stream was cut short by a drain).
func (sess *session) finish(conn net.Conn, nextSeq uint64, finished bool, readErr error) {
	srv := sess.srv

	if sess.evicting.Load() && !finished {
		srv.evictions.Add(1)
		srv.logf("session %d: evicted (idle)", sess.id)
		sess.teardown(conn, "raced: session evicted (idle)")
		return
	}
	if readErr != nil {
		srv.logf("session %d: %v", sess.id, readErr)
		sess.teardown(conn, readErr.Error())
		return
	}

	rep := sess.detector.Report()
	body, err := rep.MarshalJSON()
	if err != nil {
		srv.logf("session %d: marshal report: %v", sess.id, err)
		sess.srv.retire(sess)
		return
	}
	var flags uint64
	if !finished {
		flags |= wire.FlagPartial
	}
	payload := wire.EncodeReport(flags, body)

	// Persist the verdict of a cleanly finished session before
	// trying to deliver it: if the connection dies mid-Report — or the
	// whole process dies — the client resumes and collects the identical
	// bytes from the store. Delivery is never blocked on a store
	// failure: the client holding the connection still gets its Report,
	// and the failure is logged and counted.
	if finished {
		err := srv.store.Put(store.Record{
			Token:   sess.token,
			Session: sess.id,
			NextSeq: nextSeq,
			Flags:   flags,
			Tenant:  sess.tenant,
			JSON:    body,
		})
		if err != nil {
			srv.storePutErrors.Add(1)
			srv.logf("session %d: persist report: %v", sess.id, err)
		}
	}
	sess.srv.retire(sess)

	conn.SetWriteDeadline(time.Now().Add(drainGrace))
	if err := wire.WriteFrame(conn, wire.FrameReport, payload); err != nil {
		srv.logf("session %d: report: %v", sess.id, err)
		return
	}
	if !finished {
		// Drain: the client may still be mid-write (possibly blocked on
		// TCP backpressure). Half-close our side so it sees the stream
		// end, then discard its remaining output so its blocked writes
		// complete and it can read the partial report.
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		conn.SetReadDeadline(time.Now().Add(drainGrace))
		io.Copy(io.Discard, conn)
	}
	srv.logf("session %d: closed (finished=%v races=%d)", sess.id, finished, rep.Count)
}
