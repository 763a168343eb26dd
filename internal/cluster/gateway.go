package cluster

import (
	"bufio"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Config configures a Gateway.
type Config struct {
	// Backends is the raced fleet to route over. At least one required.
	Backends []Backend
	// Replication is the consistent-hash points per backend
	// (DefaultReplication when <= 0).
	Replication int
	// ProbeInterval, ProbeTimeout, ProbeFails shape the health prober
	// (Default* when zero).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	ProbeFails    int
	// DialTimeout bounds each backend dial plus the client handshake
	// read (10s when 0).
	DialTimeout time.Duration
	// IdleTimeout closes proxied connections that moved no frame in
	// either direction for this long. <= 0 means no idle eviction —
	// the backends run their own.
	IdleTimeout time.Duration
	// SessionTTL bounds how long a token -> backend mapping outlives
	// its last use (10m when 0). It should comfortably exceed the
	// backends' resume window, or a reconnect inside the window would
	// needlessly migrate.
	SessionTTL time.Duration
	// Tenants maps tenant name -> shared key. When non-empty the
	// gateway verifies each client's Hello.Auth credential at the edge
	// and refuses bad or missing ones with the same terminal
	// wire.ErrAuth refusal the backends use — no backend connection is
	// spent on an unauthenticated session. The Hello still crosses the
	// gateway byte-identical, so backends configured with the same keys
	// re-verify independently (the edge check is an optimization and a
	// blast-radius limit, not the trust boundary).
	Tenants map[string]string
	// Logf receives gateway logs (nil discards).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	return c
}

// route is the session table entry for one backend-issued resume token.
type route struct {
	backend  string
	lastUsed int64 // unix nanos, updated on every (re)route
}

// conduit is one proxied client<->backend connection pair.
type conduit struct {
	client  net.Conn
	backend net.Conn
	addr    string // backend address
	token   uint64 // sniffed from the Welcome (0 until then)

	lastActive atomic.Int64
	closeOnce  sync.Once
}

// close tears both halves down; each relay direction unblocks with a
// read error and exits.
func (c *conduit) close() {
	c.closeOnce.Do(func() {
		c.client.Close()
		c.backend.Close()
	})
}

// Gateway is the racedctl core: it accepts raced wire connections,
// routes each session to a backend via the ring, and proxies frames
// bidirectionally without interpreting payloads beyond the handshake —
// compressed blocks cross the gateway as opaque bytes. See the
// package comment for the routing model.
type Gateway struct {
	cfg    Config
	ring   *Ring
	prober *Prober

	mu       sync.Mutex
	ln       net.Listener
	closed   bool
	sessions map[uint64]*route
	conduits map[*conduit]struct{}
	routedBy map[string]uint64 // sessions placed per backend (lifetime)
	wg       sync.WaitGroup
	done     chan struct{}

	// Live tenant table (tmu, not mu): SetTenants — the SIGHUP reload of
	// -tenant-keys-file — swaps it without disturbing traffic.
	tmu     sync.RWMutex
	tenants map[string]string

	keyBase atomic.Uint64 // generator for gateway-picked route keys

	routed          atomic.Uint64 // fresh sessions placed
	resumed         atomic.Uint64 // tokens routed back to their home backend
	reroutes        atomic.Uint64 // tokens migrated off their home backend
	detaches        atomic.Uint64 // conduits force-closed by drain/death
	refusals        atomic.Uint64 // client handshakes the gateway refused
	authRefusals    atomic.Uint64 // handshakes refused at the edge for bad tenant credentials
	dialFails       atomic.Uint64 // backend dials that failed
	frames          atomic.Uint64 // frames proxied, both directions
	bytes           atomic.Uint64 // frame bytes proxied, both directions
	fetchFanouts    atomic.Uint64 // unknown-resume answers that triggered a fan-out
	fetchFanoutHits atomic.Uint64 // fan-outs some other backend answered with a Welcome
	tenantReloads   atomic.Uint64 // SetTenants calls (SIGHUP reloads)
}

// NewGateway builds a gateway over cfg.Backends and starts its health
// prober. Call Serve to accept traffic, then Shutdown or Close.
func NewGateway(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: gateway needs at least one backend")
	}
	tenants := make(map[string]string, len(cfg.Tenants))
	for name, key := range cfg.Tenants {
		tenants[name] = key
	}
	g := &Gateway{
		cfg:      cfg,
		ring:     NewRing(cfg.Replication),
		sessions: make(map[uint64]*route),
		conduits: make(map[*conduit]struct{}),
		routedBy: make(map[string]uint64),
		tenants:  tenants,
		done:     make(chan struct{}),
	}
	g.keyBase.Store(rand.Uint64())
	g.prober = NewProber(g.ring, cfg.Backends, cfg.ProbeInterval, cfg.ProbeTimeout, cfg.ProbeFails,
		func(addr string, st MemberState) {
			g.logf("backend %s -> %s", addr, st)
			if st != StateUp {
				g.detachBackend(addr)
			}
		})
	g.prober.Start()
	g.wg.Add(1)
	go g.janitor()
	return g, nil
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// Ring exposes the membership ring (for tests and the CLI's status
// output).
func (g *Gateway) Ring() *Ring { return g.ring }

// Serve accepts proxied connections on ln until Shutdown/Close.
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		ln.Close()
		return errors.New("cluster: gateway closed")
	}
	g.ln = ln
	g.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-g.done:
				return nil
			default:
				return err
			}
		}
		// Shutdown and Close set closed under g.mu before they wait on
		// g.wg, so adding under g.mu while it is false never lands
		// during a Wait (sync.WaitGroup panics on that). A connection
		// accepted as the gateway closes is closed unserved.
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return nil
		}
		g.wg.Add(1)
		g.mu.Unlock()
		go func() {
			defer g.wg.Done()
			g.handle(conn)
		}()
	}
}

// Addr returns the serving address, nil before Serve.
func (g *Gateway) Addr() net.Addr {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ln == nil {
		return nil
	}
	return g.ln.Addr()
}

// Shutdown stops accepting and waits for in-flight conduits to finish,
// up to ctx's deadline; the remainder are cut off. The backends keep
// the sessions' state, so cut-off clients resume through another
// gateway (or this one after restart).
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.beginClose()
	finished := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		g.prober.Stop()
		return nil
	case <-ctx.Done():
		g.closeAllConduits()
		g.prober.Stop()
		return ctx.Err()
	}
}

// Close abruptly terminates the gateway and every proxied connection.
func (g *Gateway) Close() error {
	g.beginClose()
	g.closeAllConduits()
	g.prober.Stop()
	g.wg.Wait()
	return nil
}

func (g *Gateway) beginClose() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.done)
		if g.ln != nil {
			g.ln.Close()
		}
	}
	g.mu.Unlock()
}

func (g *Gateway) closeAllConduits() {
	g.mu.Lock()
	conduits := make([]*conduit, 0, len(g.conduits))
	for c := range g.conduits {
		conduits = append(conduits, c)
	}
	g.mu.Unlock()
	for _, c := range conduits {
		c.close()
	}
}

// detachBackend force-closes every conduit attached to a backend that
// left rotation (drain or death). The clients reconnect through the
// gateway; pick() then routes their tokens to a live backend, and the
// RetainAll replay path re-creates the sessions there. Cutting a
// *draining* backend loose is deliberate: its drain report would only
// cover a prefix, while a migrated replay yields the full verdict.
func (g *Gateway) detachBackend(addr string) {
	g.mu.Lock()
	var victims []*conduit
	for c := range g.conduits {
		if c.addr == addr {
			victims = append(victims, c)
		}
	}
	g.mu.Unlock()
	for _, c := range victims {
		g.detaches.Add(1)
		c.close()
	}
	if len(victims) > 0 {
		g.logf("detached %d session(s) from %s", len(victims), addr)
	}
}

// janitor prunes idle conduits and expired session-table entries.
func (g *Gateway) janitor() {
	defer g.wg.Done()
	period := g.cfg.SessionTTL / 4
	if g.cfg.IdleTimeout > 0 && g.cfg.IdleTimeout/4 < period {
		period = g.cfg.IdleTimeout / 4
	}
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	if period > time.Minute {
		period = time.Minute
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-g.done:
			return
		case <-tick.C:
			now := time.Now()
			var idle []*conduit
			g.mu.Lock()
			for token, r := range g.sessions {
				if now.UnixNano()-r.lastUsed > int64(g.cfg.SessionTTL) {
					delete(g.sessions, token)
				}
			}
			if g.cfg.IdleTimeout > 0 {
				for c := range g.conduits {
					if now.UnixNano()-c.lastActive.Load() > int64(g.cfg.IdleTimeout) {
						idle = append(idle, c)
					}
				}
			}
			g.mu.Unlock()
			for _, c := range idle {
				g.logf("closing idle conduit to %s", c.addr)
				c.close()
			}
		}
	}
}

// refuse answers a client the gateway cannot route. Refusals that a
// retry might cure (no healthy backend yet, a backend dial race) carry
// wire.HandshakeRefusedPrefix so clients treat them as transient.
func (g *Gateway) refuse(conn net.Conn, retryable bool, format string, args ...any) {
	g.refusals.Add(1)
	msg := fmt.Sprintf(format, args...)
	g.logf("refused %v: %s", conn.RemoteAddr(), msg)
	if retryable {
		msg = wire.HandshakeRefusedPrefix + msg
	}
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	wire.WriteFrame(conn, wire.FrameError, []byte(msg))
}

// SetTenants atomically replaces the gateway's edge tenant table (the
// SIGHUP reload of -tenant-keys-file). New handshakes are checked
// against the new table immediately; established conduits keep
// relaying — revocation of live sessions is the backends' job, where
// the authoritative table lives. An empty table turns the edge check
// off.
func (g *Gateway) SetTenants(table map[string]string) {
	next := make(map[string]string, len(table))
	for name, key := range table {
		next[name] = key
	}
	g.tmu.Lock()
	g.tenants = next
	g.tmu.Unlock()
	g.tenantReloads.Add(1)
}

// authenticate verifies the client's tenant credential at the edge,
// with exactly raced's rules (internal/server): no-op unless a tenant
// table is live; empty credentials are refused; otherwise "name:key"
// must match in constant time. The error text never says which part
// failed.
func (g *Gateway) authenticate(hello wire.Hello) error {
	g.tmu.RLock()
	defer g.tmu.RUnlock()
	if len(g.tenants) == 0 {
		return nil
	}
	if hello.Auth == "" {
		return fmt.Errorf("%w (tenant credential required)", wire.ErrAuth)
	}
	name, key, ok := strings.Cut(hello.Auth, ":")
	want, found := g.tenants[name]
	if !ok || !found || subtle.ConstantTimeCompare([]byte(key), []byte(want)) != 1 {
		return wire.ErrAuth
	}
	return nil
}

// pick chooses the backend for a handshake. Tokens go home when home
// is Up; otherwise (and for fresh sessions) the ring decides.
func (g *Gateway) pick(hello wire.Hello) (addr string, migrated bool, err error) {
	if hello.Token != 0 {
		g.mu.Lock()
		r, known := g.sessions[hello.Token]
		var home string
		if known {
			home = r.backend
			r.lastUsed = time.Now().UnixNano()
		}
		g.mu.Unlock()
		if known && g.ring.State(home) == StateUp {
			return home, false, nil
		}
		// Home backend gone (or the gateway restarted and forgot): route
		// the token like a key. The chosen backend will not know the
		// session and answers the documented unknown-resume error, which
		// RetainAll clients ride out by replaying the stream.
		addr, ok := g.ring.Lookup(hello.Token)
		if !ok {
			return "", false, errors.New("racedctl: no healthy backend")
		}
		return addr, true, nil
	}
	key := hello.RouteKey
	if key == 0 {
		key = g.keyBase.Add(0x9E3779B97F4A7C15)
	}
	addr, ok := g.ring.Lookup(key)
	if !ok {
		return "", false, errors.New("racedctl: no healthy backend")
	}
	return addr, false, nil
}

// handle proxies one client connection end to end.
func (g *Gateway) handle(clientConn net.Conn) {
	defer clientConn.Close()

	// Handshake phase: bounded reads so a stalled client cannot pin a
	// goroutine forever.
	clientConn.SetReadDeadline(time.Now().Add(g.cfg.DialTimeout))
	if err := wire.ReadMagic(clientConn); err != nil {
		if errors.Is(err, wire.ErrEmptyHandshake) {
			return // health probe; close silently, like raced
		}
		g.refuse(clientConn, true, "racedctl: %v", err)
		return
	}
	ft, payload, err := wire.ReadFrame(clientConn, nil)
	if err != nil || ft != wire.FrameHello {
		g.refuse(clientConn, true, "racedctl: expected hello frame")
		return
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		g.refuse(clientConn, true, "racedctl: malformed hello: %v", err)
		return
	}
	if err := g.authenticate(hello); err != nil {
		g.authRefusals.Add(1)
		// Retryable spelling (HandshakeRefusedPrefix) but terminal text:
		// clients recognize wire.ErrAuth inside the refusal and stop, the
		// same classification a backend refusal produces.
		g.refuse(clientConn, true, "%v", err)
		return
	}

	// Route and dial, ejecting unreachable backends as we learn about
	// them (the prober confirms or reverses the verdict on its next
	// round).
	var backendConn net.Conn
	var addr string
	var migrated bool
	for try := 0; try < len(g.cfg.Backends)+1; try++ {
		addr, migrated, err = g.pick(hello)
		if err != nil {
			g.refuse(clientConn, true, "%v", err)
			return
		}
		backendConn, err = net.DialTimeout("tcp", addr, g.cfg.DialTimeout)
		if err == nil {
			break
		}
		g.dialFails.Add(1)
		g.logf("backend %s dial failed: %v", addr, err)
		if g.ring.SetState(addr, StateDown) {
			g.detachBackend(addr)
		}
	}
	if backendConn == nil {
		g.refuse(clientConn, true, "racedctl: no healthy backend")
		return
	}
	// Deferred via closure: the fetch fan-out below may swap backendConn
	// for a different backend's connection mid-handshake.
	defer func() { backendConn.Close() }()

	// Keep a copy of the hello payload for the fan-out: the sniff below
	// reuses the buffer, and re-asking other backends means re-sending
	// the hello byte-identically.
	var helloCopy []byte
	if hello.Token != 0 {
		helloCopy = append([]byte(nil), payload...)
	}

	// Forward the handshake byte-identically: the magic and the Hello
	// payload as received, so fields the gateway does not interpret
	// survive the hop.
	backendConn.SetDeadline(time.Now().Add(g.cfg.DialTimeout))
	if err := wire.WriteMagic(backendConn); err == nil {
		err = wire.WriteFrame(backendConn, wire.FrameHello, payload)
	}
	if err != nil {
		g.refuse(clientConn, true, "racedctl: backend %s handshake: %v", addr, err)
		return
	}

	// Sniff the backend's verdict on the session so the resume token
	// maps to its home backend for later reconnects.
	ft, payload, err = wire.ReadFrame(backendConn, payload[:0])
	if err != nil {
		g.refuse(clientConn, true, "racedctl: backend %s handshake: %v", addr, err)
		return
	}
	// Fetch fan-out: the routed backend does not know this resume token.
	// Before passing its unknown-resume refusal to the client, ask every
	// other Up backend in parallel — a follower replicating the home
	// backend's store can serve the identical report after the home
	// backend died. First Welcome wins; if nobody answers, the original
	// refusal stands (RetainAll clients ride it out by replaying).
	if ft == wire.FrameError && hello.Token != 0 &&
		strings.Contains(string(payload), wire.ErrUnknownResume.Error()) {
		if waddr, wconn, wpayload := g.fetchFanOut(helloCopy, addr); wconn != nil {
			g.logf("fetch fan-out: token %x answered by %s", hello.Token, waddr)
			backendConn.Close()
			backendConn, addr = wconn, waddr
			ft, payload = wire.FrameWelcome, wpayload
		}
	}
	var token uint64
	if ft == wire.FrameWelcome {
		if welcome, werr := wire.DecodeWelcomeV3(payload); werr == nil && welcome.Token != 0 {
			token = welcome.Token
			g.mu.Lock()
			g.sessions[token] = &route{backend: addr, lastUsed: time.Now().UnixNano()}
			g.routedBy[addr]++
			g.mu.Unlock()
		}
	}
	// Count the routing decision whatever the backend answered: a
	// migrated token is a reroute even when the new backend answers
	// unknown-resume (that refusal is the migration working — the
	// client's replay follows on its next connection).
	switch {
	case hello.Token != 0 && migrated:
		g.reroutes.Add(1)
		g.logf("session token %x migrated to %s", hello.Token, addr)
	case hello.Token != 0:
		g.resumed.Add(1)
	default:
		g.routed.Add(1)
	}
	// Forward the Welcome (or the backend's refusal) verbatim: same
	// frame type, same payload bytes.
	clientConn.SetWriteDeadline(time.Now().Add(g.cfg.DialTimeout))
	if err := wire.WriteFrame(clientConn, ft, payload); err != nil {
		return
	}
	if ft != wire.FrameWelcome {
		// The backend refused (or, for a finished-session resume, sent
		// an Error the client understands). Nothing to relay; the
		// refusal text crossed untouched.
		return
	}
	clientConn.SetDeadline(time.Time{})
	backendConn.SetDeadline(time.Time{})

	c := &conduit{client: clientConn, backend: backendConn, addr: addr, token: token}
	c.lastActive.Store(time.Now().UnixNano())
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.conduits[c] = struct{}{}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.conduits, c)
		g.mu.Unlock()
		c.close()
	}()

	// Relay both directions at frame granularity until either side
	// drops. A backend death closes the client half too; the client's
	// reconnect comes back through Accept and pick() re-routes it.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		g.relay(c, c.client, c.backend, false)
	}()
	go func() {
		defer wg.Done()
		g.relay(c, c.backend, c.client, true)
	}()
	wg.Wait()
}

// fetchFanOut asks every Up backend except exclude for a resume token
// the routed backend did not know, by replaying the client's handshake
// (byte-identical hello) to each in parallel. Each probe
// is bounded by DialTimeout; the first backend to answer with a
// Welcome wins and its live connection is returned for the caller to
// adopt — the losers are closed as their answers arrive. Returns a nil
// conn when nobody knows the token.
func (g *Gateway) fetchFanOut(helloPayload []byte, exclude string) (string, net.Conn, []byte) {
	g.fetchFanouts.Add(1)
	var cands []string
	for a, st := range g.ring.Members() {
		if a != exclude && st == StateUp {
			cands = append(cands, a)
		}
	}
	if len(cands) == 0 {
		return "", nil, nil
	}
	type answer struct {
		addr    string
		conn    net.Conn
		payload []byte
	}
	results := make(chan answer, len(cands))
	for _, a := range cands {
		go func(addr string) {
			conn, err := net.DialTimeout("tcp", addr, g.cfg.DialTimeout)
			if err != nil {
				g.dialFails.Add(1)
				results <- answer{addr: addr}
				return
			}
			conn.SetDeadline(time.Now().Add(g.cfg.DialTimeout))
			if err := wire.WriteMagic(conn); err == nil {
				err = wire.WriteFrame(conn, wire.FrameHello, helloPayload)
			}
			if err != nil {
				conn.Close()
				results <- answer{addr: addr}
				return
			}
			ft, payload, err := wire.ReadFrame(conn, nil)
			if err != nil || ft != wire.FrameWelcome {
				conn.Close()
				results <- answer{addr: addr}
				return
			}
			results <- answer{addr: addr, conn: conn, payload: payload}
		}(a)
	}
	for i := 0; i < len(cands); i++ {
		r := <-results
		if r.conn == nil {
			continue
		}
		g.fetchFanoutHits.Add(1)
		// First good answer wins; close stragglers as they trickle in.
		remaining := len(cands) - i - 1
		go func() {
			for j := 0; j < remaining; j++ {
				if late := <-results; late.conn != nil {
					late.conn.Close()
				}
			}
		}()
		return r.addr, r.conn, r.payload
	}
	return "", nil, nil
}

// relayBufBytes sizes each relay direction's read and write buffers.
const relayBufBytes = 64 << 10

// relay pumps frames src -> dst until either side errors, re-emitting
// each frame untouched (same type, same payload bytes — compressed
// blocks are never decoded). The one exception is an unsolicited
// partial report from a draining backend (see below): forwarding it
// would end the client's stream with a prefix verdict when a migrated
// replay can still produce the full one.
func (g *Gateway) relay(c *conduit, src, dst net.Conn, fromBackend bool) {
	defer c.close()
	br := bufio.NewReaderSize(src, relayBufBytes)
	bw := bufio.NewWriterSize(dst, relayBufBytes)
	var scratch []byte
	for {
		ft, payload, err := wire.ReadFrame(br, scratch)
		if err != nil {
			return
		}
		scratch = payload[:0]
		c.lastActive.Store(time.Now().UnixNano())
		g.frames.Add(1)
		g.bytes.Add(uint64(len(payload)) + 5)
		if fromBackend && ft == wire.FrameReport && c.token != 0 {
			// A FlagPartial report means a draining backend cut the
			// session short: it never saw the client's Finish (idle
			// evictions use an Error frame; even a Finish the gateway
			// relayed may have died unread in the drain race). A partial
			// verdict through the gateway is worse than none: drop it,
			// mark the backend draining so the prober's next round is
			// not on the critical path, and cut the conduit — the client
			// reconnects, pick() reroutes its token, and the replay
			// rebuilds the session elsewhere for the full verdict.
			if flags, _, derr := wire.DecodeReport(payload); derr == nil && flags&wire.FlagPartial != 0 {
				g.logf("suppressing partial drain report from %s (token %x); migrating", c.addr, c.token)
				if g.ring.SetState(c.addr, StateDraining) {
					g.detachBackend(c.addr)
				}
				g.detaches.Add(1)
				return
			}
		}
		if err := wire.WriteFrame(bw, ft, payload); err != nil {
			return
		}
		// Flush when no further frame is already buffered: batching
		// under load, low latency when quiet.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// Stats is a snapshot of the gateway counters.
type Stats struct {
	Routed          uint64
	Resumed         uint64
	Reroutes        uint64
	Detaches        uint64
	Refusals        uint64
	AuthRefusals    uint64
	DialFails       uint64
	Frames          uint64
	Bytes           uint64
	FetchFanouts    uint64
	FetchFanoutHits uint64
	TenantReloads   uint64
	Table           int
	Conduits        int
	RoutedBy        map[string]uint64
}

// Stats snapshots the gateway's routing and relay counters.
func (g *Gateway) Stats() Stats {
	st := Stats{
		Routed:          g.routed.Load(),
		Resumed:         g.resumed.Load(),
		Reroutes:        g.reroutes.Load(),
		Detaches:        g.detaches.Load(),
		Refusals:        g.refusals.Load(),
		AuthRefusals:    g.authRefusals.Load(),
		DialFails:       g.dialFails.Load(),
		Frames:          g.frames.Load(),
		Bytes:           g.bytes.Load(),
		FetchFanouts:    g.fetchFanouts.Load(),
		FetchFanoutHits: g.fetchFanoutHits.Load(),
		TenantReloads:   g.tenantReloads.Load(),
		RoutedBy:        make(map[string]uint64),
	}
	g.mu.Lock()
	st.Table = len(g.sessions)
	st.Conduits = len(g.conduits)
	for a, n := range g.routedBy {
		st.RoutedBy[a] = n
	}
	g.mu.Unlock()
	return st
}

// Handler returns the gateway's observability endpoints: /healthz
// (gateway liveness plus per-backend states; 503 when no backend is
// routable) and /metrics (racedctl_* counters in Prometheus text
// form).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		members := g.ring.Members()
		backends := make(map[string]string, len(members))
		up := 0
		for a, st := range members {
			backends[a] = st.String()
			if st == StateUp {
				up++
			}
		}
		status := "ok"
		w.Header().Set("Content-Type", "application/json")
		if up == 0 {
			status = "no-backends"
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(map[string]any{
			"status":   status,
			"up":       up,
			"backends": backends,
			"conduits": g.Stats().Conduits,
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		st := g.Stats()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		var x obs.Exposition
		x.Counter("racedctl_sessions_routed_total", "Fresh sessions routed to a backend.", st.Routed)
		x.Counter("racedctl_sessions_resumed_total", "Resumed sessions routed by their token.", st.Resumed)
		x.Counter("racedctl_reroutes_total", "Resumed sessions moved off their home backend.", st.Reroutes)
		x.Counter("racedctl_detaches_total", "Conduits cut because their backend left the ring.", st.Detaches)
		x.Counter("racedctl_refusals_total", "Clients refused because no backend could take them.", st.Refusals)
		x.Counter("racedctl_auth_refusals_total", "Handshakes refused at the edge for bad or missing tenant credentials.", st.AuthRefusals)
		x.Counter("racedctl_backend_dial_failures_total", "Backend dials that failed.", st.DialFails)
		x.Counter("racedctl_frames_proxied_total", "Frames relayed in either direction.", st.Frames)
		x.Counter("racedctl_bytes_proxied_total", "Bytes relayed in either direction.", st.Bytes)
		x.Counter("racedctl_fetch_fanouts_total", "Unknown-resume fetches fanned out to the other backends.", st.FetchFanouts)
		x.Counter("racedctl_fetch_fanout_hits_total", "Fanned-out fetches another backend answered.", st.FetchFanoutHits)
		x.Counter("racedctl_tenant_reloads_total", "Edge tenant table replacements (SIGHUP).", st.TenantReloads)
		x.Gauge("racedctl_session_table_size", "Resume tokens with a known home backend.", uint64(st.Table))
		x.Gauge("racedctl_conduits_live", "Client connections being relayed now.", uint64(st.Conduits))
		members := g.ring.Members()
		up := make(map[string]uint64, len(members))
		routed := make(map[string]uint64, len(members))
		for addr, state := range members {
			up[addr], routed[addr] = 0, st.RoutedBy[addr]
			if state == StateUp {
				up[addr] = 1
			}
		}
		x.GaugeVec("racedctl_backend_up", "1 while the backend is routable.", "backend", up)
		x.CounterVec("racedctl_backend_sessions_routed_total", "Sessions each backend welcomed through the gateway.", "backend", routed)
		x.WriteTo(w)
	})
	return mux
}
