package client

import (
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// startScripted serves one scripted handler per accepted connection
// (0-indexed) and returns the address plus a connection counter.
func startScripted(t *testing.T, handler func(i int, c net.Conn)) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns atomic.Int32
	go func() {
		for i := 0; ; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func(i int, c net.Conn) {
				defer c.Close()
				c.SetDeadline(time.Now().Add(5 * time.Second))
				handler(i, c)
			}(i, c)
		}
	}()
	return ln.Addr().String(), &conns
}

// readFetchHello consumes the magic and Hello frame a fetching client
// sends, so scripted refusals happen after a complete handshake read.
func readFetchHello(c net.Conn) (wire.Hello, bool) {
	if err := wire.ReadMagic(c); err != nil {
		return wire.Hello{}, false
	}
	ft, payload, err := wire.ReadFrame(c, nil)
	if err != nil || ft != wire.FrameHello {
		return wire.Hello{}, false
	}
	h, err := wire.DecodeHello(payload)
	return h, err == nil
}

func refuse(c net.Conn, text string) {
	wire.WriteFrame(c, wire.FrameError, []byte(wire.HandshakeRefusedPrefix+text))
}

var fetchTestReport = []byte(`{"engine":"2d","tasks":1,"locations":0,"race_count":0,"races":[]}`)

func serveReport(c net.Conn) {
	wire.WriteFrame(c, wire.FrameWelcome, wire.EncodeWelcomeV3(wire.Welcome{Session: 1}))
	wire.WriteFrame(c, wire.FrameReport, wire.EncodeReport(0, fetchTestReport))
}

// TestFetchRotatesToFallbackOnUnknownToken: the primary endpoint
// disclaims the token, the WithEndpoints fallback holds it — Fetch
// must ask the fallback (without burning backoff time) and succeed.
func TestFetchRotatesToFallbackOnUnknownToken(t *testing.T) {
	primary, pConns := startScripted(t, func(i int, c net.Conn) {
		if _, ok := readFetchHello(c); ok {
			refuse(c, wire.ErrUnknownResume.Error())
		}
	})
	fallback, fConns := startScripted(t, func(i int, c net.Conn) {
		if _, ok := readFetchHello(c); ok {
			serveReport(c)
		}
	})
	f, err := Fetch(primary, 0x42, WithEndpoints(fallback))
	if err != nil {
		t.Fatalf("Fetch with fallback holding the token: %v", err)
	}
	if !bytes.Equal(f.JSON, fetchTestReport) {
		t.Errorf("fetched %s, want %s", f.JSON, fetchTestReport)
	}
	if p, fb := pConns.Load(), fConns.Load(); p != 1 || fb != 1 {
		t.Errorf("connections: primary %d fallback %d, want 1 each", p, fb)
	}
}

// TestFetchUnknownTokenTerminalAfterAllEndpoints: once every endpoint
// has disclaimed the token the refusal is terminal — exactly one ask
// per endpoint, no backoff-padded re-asks.
func TestFetchUnknownTokenTerminalAfterAllEndpoints(t *testing.T) {
	unknown := func(i int, c net.Conn) {
		if _, ok := readFetchHello(c); ok {
			refuse(c, wire.ErrUnknownResume.Error())
		}
	}
	a, aConns := startScripted(t, unknown)
	b, bConns := startScripted(t, unknown)
	_, err := Fetch(a, 0x42, WithEndpoints(b), WithMaxAttempts(6))
	if !IsUnknownToken(err) {
		t.Fatalf("err = %v, want unknown-token", err)
	}
	if ac, bc := aConns.Load(), bConns.Load(); ac != 1 || bc != 1 {
		t.Errorf("connections: a %d b %d, want 1 each", ac, bc)
	}
}

// TestFetchRetriesTransientFailures: a connection severed before any
// answer is transient — Fetch must back off and try again, and the
// second attempt's answer wins.
func TestFetchRetriesTransientFailures(t *testing.T) {
	addr, conns := startScripted(t, func(i int, c net.Conn) {
		if i == 0 {
			return // close without answering: transient
		}
		if _, ok := readFetchHello(c); ok {
			serveReport(c)
		}
	})
	f, err := Fetch(addr, 0x42, WithBackoff(time.Millisecond, 4*time.Millisecond))
	if err != nil {
		t.Fatalf("Fetch across transient failure: %v", err)
	}
	if !bytes.Equal(f.JSON, fetchTestReport) {
		t.Errorf("fetched %s, want %s", f.JSON, fetchTestReport)
	}
	if n := conns.Load(); n != 2 {
		t.Errorf("connections = %d, want 2 (one failure, one success)", n)
	}
}

// TestFetchTerminalRefusalsDoNotRetry: an auth refusal is the server
// answering coherently — retrying cannot cure it, so Fetch must stop
// after one attempt.
func TestFetchTerminalRefusalsDoNotRetry(t *testing.T) {
	addr, conns := startScripted(t, func(i int, c net.Conn) {
		if _, ok := readFetchHello(c); ok {
			refuse(c, wire.ErrAuth.Error())
		}
	})
	_, err := Fetch(addr, 0x42, WithMaxAttempts(5), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err == nil || !terminalRefusal(err.Error()) {
		t.Fatalf("err = %v, want terminal auth refusal", err)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("connections = %d, want 1 (no retry of a terminal refusal)", n)
	}
}

// TestFetchBackoffCeiling pins the full-jitter schedule: every sampled
// delay stays within [0, min(max, base<<attempt-1)] and the ceiling
// saturates at BackoffMax rather than overflowing.
func TestFetchBackoffCeiling(t *testing.T) {
	o := options{BackoffBase: 50 * time.Millisecond, BackoffMax: 2 * time.Second}
	for attempt := 1; attempt <= 80; attempt++ {
		ceil := o.BackoffBase << uint(min(attempt-1, 16))
		if ceil > o.BackoffMax || ceil <= 0 {
			ceil = o.BackoffMax
		}
		for trial := 0; trial < 20; trial++ {
			if d := backoff(o, attempt); d < 0 || d > ceil {
				t.Fatalf("attempt %d: backoff %v outside [0, %v]", attempt, d, ceil)
			}
		}
	}
}

// TestDialVersionRefusalIsTerminal: with one protocol version there is
// nothing to downgrade to, so a server answering the handshake with the
// version refusal ends Dial after a single connection — the error
// carries the wire.ErrVersion text and no MaxAttempts budget is spent.
func TestDialVersionRefusalIsTerminal(t *testing.T) {
	addr, conns := startScripted(t, func(i int, c net.Conn) {
		if _, ok := readFetchHello(c); ok {
			refuse(c, wire.ErrVersion.Error()+": version 3, speak 4")
		}
	})
	_, err := Dial(addr, WithMaxAttempts(5), WithBackoff(time.Millisecond, 2*time.Millisecond), WithoutHeartbeat())
	if err == nil || !strings.Contains(err.Error(), wire.ErrVersion.Error()) {
		t.Fatalf("err = %v, want the version refusal", err)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("connections = %d, want 1 (a version refusal is terminal)", n)
	}
}
