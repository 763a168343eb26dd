package client

import (
	"fmt"
	"net"
	"strings"
	"time"
)

// Option configures Dial (and Fetch), mirroring the functional-options
// style of race2d.Detect: each constructor documents and validates one
// knob, and invalid values (zero or negative where a positive count is
// required, a malformed credential) surface as errors from Dial instead
// of being silently clamped. The zero configuration — Dial(addr) with
// no options — is the fully defaulted fault-tolerant compressed client.
type Option func(*options) error

// WithEngine names the detector engine the server should run (race2d
// engine vocabulary; the default is the server's default, "2d").
// Unknown names are the server's to refuse — the vocabulary is its.
func WithEngine(name string) Option {
	return func(o *options) error {
		o.Engine = name
		return nil
	}
}

// WithBatchSize asks the server to deliver events to its engine in
// batches of n. Zero delivers per event, which keeps the remote
// Report's Stats identical to an unbuffered local run. Negative sizes
// are a configuration error.
func WithBatchSize(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("client: negative batch size %d", n)
		}
		o.BatchSize = n
		return nil
	}
}

// WithFrameEvents sets the transport batch: events packed per wire
// frame, each encoded as one self-contained block (default
// DefaultFrameEvents, 4096). Smaller frames pay the block codec's
// per-block setup more often and ship more bytes per event; larger ones
// hold more events per unacknowledged batch. Purely a throughput knob;
// it does not affect the verdict. n must be positive.
func WithFrameEvents(n int) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("client: frame events must be positive, got %d", n)
		}
		o.EventsPerFrame = n
		return nil
	}
}

// WithDialTimeout bounds each TCP dial and handshake attempt (default
// 10s). d must be positive.
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("client: dial timeout must be positive, got %v", d)
		}
		o.DialTimeout = d
		return nil
	}
}

// WithFinishTimeout bounds how long Finish waits for the server's
// Report and how long a full replay window waits for ack progress
// before the connection is declared dead (default 30s). d must be
// positive.
func WithFinishTimeout(d time.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("client: finish timeout must be positive, got %v", d)
		}
		o.FinishTimeout = d
		return nil
	}
}

// WithWriteTimeout sets the per-frame write deadline (default 10s).
// d must be positive.
func WithWriteTimeout(d time.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("client: write timeout must be positive, got %v", d)
		}
		o.WriteTimeout = d
		return nil
	}
}

// WithHeartbeat sets the keepalive cadence while the connection is
// otherwise quiet and how many silent intervals mark the peer dead and
// force a reconnect (defaults 10s and 3). Both must be positive; use
// WithoutHeartbeat to disable keepalives entirely.
func WithHeartbeat(interval time.Duration, misses int) Option {
	return func(o *options) error {
		if interval <= 0 {
			return fmt.Errorf("client: heartbeat interval must be positive, got %v (use WithoutHeartbeat to disable)", interval)
		}
		if misses <= 0 {
			return fmt.Errorf("client: heartbeat misses must be positive, got %d", misses)
		}
		o.HeartbeatInterval = interval
		o.HeartbeatMisses = misses
		return nil
	}
}

// WithoutHeartbeat disables the keepalive goroutine; dead peers are
// then detected only by failed writes and the Finish timeout.
func WithoutHeartbeat() Option {
	return func(o *options) error {
		o.HeartbeatInterval = -1
		return nil
	}
}

// WithMaxAttempts sets the consecutive connect-attempt budget; it
// resets after every successful handshake. When the budget runs out the
// session circuit-breaks and Finish returns an error wrapping
// ErrPartial. (Default 5.) n must be positive.
func WithMaxAttempts(n int) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("client: max attempts must be positive, got %d", n)
		}
		o.MaxAttempts = n
		return nil
	}
}

// WithBackoff shapes the exponential reconnect backoff with full
// jitter: attempt k sleeps uniform(0, min(max, base<<k)). Defaults 50ms
// and 2s. base must be positive and max at least base.
func WithBackoff(base, max time.Duration) Option {
	return func(o *options) error {
		if base <= 0 {
			return fmt.Errorf("client: backoff base must be positive, got %v", base)
		}
		if max < base {
			return fmt.Errorf("client: backoff max %v below base %v", max, base)
		}
		o.BackoffBase = base
		o.BackoffMax = max
		return nil
	}
}

// WithReplayWindow bounds the replay window — unacknowledged batches
// held for resend as their encoded blocks — in batches (default
// DefaultWindowBatches, 8: with the default frame size, 32,768 events
// in flight). A full window blocks the producer until the server
// acknowledges progress. Scale it inversely with WithFrameEvents to
// keep the same number of events in flight. n must be positive.
func WithReplayWindow(n int) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("client: replay window must be positive, got %d batches", n)
		}
		o.WindowBatches = n
		return nil
	}
}

// WithRetainAll keeps acknowledged batches in the replay window too, so
// the whole stream can replay into a fresh session if the server
// restarts (or a cluster gateway migrates the session to a backend that
// never saw it). Memory grows with the stream; reserve it for runs that
// must survive server loss.
func WithRetainAll() Option {
	return func(o *options) error {
		o.RetainAll = true
		return nil
	}
}

// WithEndpoints adds fallback server or gateway addresses behind the
// primary one passed to Dial. Connect attempts rotate through the seed
// list, so a session survives the loss of one gateway out of a fleet.
// The endpoints must share session state (several racedctl gateways in
// front of one backend fleet, or interchangeable fresh servers under
// WithRetainAll); a resume token presented to an endpoint that never
// issued it is answered with the documented unknown-resume error, which
// only a RetainAll session can ride out. At least one address is
// required and none may be empty.
func WithEndpoints(addrs ...string) Option {
	return func(o *options) error {
		if len(addrs) == 0 {
			return fmt.Errorf("client: WithEndpoints requires at least one address")
		}
		for _, a := range addrs {
			if a == "" {
				return fmt.Errorf("client: WithEndpoints: empty address")
			}
		}
		o.Endpoints = append(o.Endpoints, addrs...)
		return nil
	}
}

// WithRouteKey pins the session's placement under a cluster gateway:
// the gateway consistent-hashes a non-zero key over its backend ring,
// so sessions sharing a key land on the same backend. Zero (the
// default) lets the gateway pick. Direct raced servers ignore the key.
func WithRouteKey(key uint64) Option {
	return func(o *options) error {
		o.RouteKey = key
		return nil
	}
}

// WithAuthToken presents a tenant credential, spelled "tenant:key", in
// the handshake (wire.CapTenant). Required against a server running
// with -tenant-keys; ignored by an open server. A server refusing the
// credential (wire.ErrAuth) or the tenant's quota (wire.ErrQuota) is a
// terminal error, not a retry: resending the same credential cannot
// succeed. The token must name both parts.
func WithAuthToken(token string) Option {
	return func(o *options) error {
		tenant, key, ok := strings.Cut(token, ":")
		if !ok || tenant == "" || key == "" {
			return fmt.Errorf("client: auth token must be \"tenant:key\", got %q", token)
		}
		o.AuthToken = token
		return nil
	}
}

// options is the resolved configuration behind the Option
// constructors, which document each field; normalized fills the
// defaults of every field left zero.
type options struct {
	Engine            string        // WithEngine
	BatchSize         int           // WithBatchSize
	EventsPerFrame    int           // WithFrameEvents
	DialTimeout       time.Duration // WithDialTimeout
	FinishTimeout     time.Duration // WithFinishTimeout
	WriteTimeout      time.Duration // WithWriteTimeout
	HeartbeatInterval time.Duration // WithHeartbeat; < 0 is WithoutHeartbeat
	HeartbeatMisses   int           // WithHeartbeat
	MaxAttempts       int           // WithMaxAttempts
	BackoffBase       time.Duration // WithBackoff
	BackoffMax        time.Duration // WithBackoff
	WindowBatches     int           // WithReplayWindow
	RetainAll         bool          // WithRetainAll
	Endpoints         []string      // WithEndpoints
	RouteKey          uint64        // WithRouteKey
	AuthToken         string        // WithAuthToken

	// dial opens the transport; nil is net.DialTimeout. A test seam:
	// no Option sets it.
	dial func(network, addr string, timeout time.Duration) (net.Conn, error)
}

// resolve applies opts in order (nil entries are skipped) and fills the
// defaults. The first invalid option's error is returned.
func resolve(opts []Option) (options, error) {
	var o options
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&o); err != nil {
			return options{}, err
		}
	}
	return o.normalized()
}

// normalized fills defaults and validates the fields with a rejectable
// domain.
func (o options) normalized() (options, error) {
	if o.EventsPerFrame <= 0 {
		o.EventsPerFrame = DefaultFrameEvents
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.FinishTimeout <= 0 {
		o.FinishTimeout = 30 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 10 * time.Second
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = 3
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.WindowBatches <= 0 {
		o.WindowBatches = DefaultWindowBatches
	}
	for _, a := range o.Endpoints {
		if a == "" {
			return options{}, fmt.Errorf("client: empty endpoint address")
		}
	}
	return o, nil
}
