package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

// The traced run times each layer from outside: around the benchmark's
// own calls into the client, and through wrappers around the
// net.Listener handed to Server.Serve and the store.Store handed in
// server.Config.Store. Nothing inside the program is instrumented.
//
// Spans are kept in memory and written out when the run ends. Client
// spans carry the benchmark's session id; server and store spans carry
// the resume token, which the listener wrapper sniffs from the Welcome
// frame the server writes. Attribution joins the two by token.

// span is one timed interval. Parent names the span it nests in; token
// spans get theirs at attribution time, by containment.
type span struct {
	Session int64  `json:"session,omitempty"`
	Token   uint64 `json:"token,omitempty"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// connStats is one server-side connection's accounting, folded in when
// the server closes it.
type connStats struct {
	Token    uint64 `json:"token"`
	Accepted int64  `json:"accepted_ns"`
	Reads    int64  `json:"reads"`
	Writes   int64  `json:"writes"`
	ReadNs   int64  `json:"read_ns"`
	WriteNs  int64  `json:"write_ns"`
}

// tracer collects spans and wrapper counters for one traced window.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	conns   []connStats
	sample  []store.Record // Put records kept for the bare-log replay
	putErrs int64
}

// maxSample bounds the records kept for the bare-log Put replay.
const maxSample = 64

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// clientSpan records a span the benchmark timed around a client call.
func (t *tracer) clientSpan(session int64, token uint64, name, parent string, start, end time.Time) {
	t.add(span{Session: session, Token: token, Name: name, Parent: parent, Start: t.ns(start), End: t.ns(end)})
}

// listener wraps ln so every accepted connection is accounted.
func (t *tracer) listener(ln net.Listener) net.Listener { return &tracedListener{Listener: ln, tr: t} }

type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, accepted: time.Now()}, nil
}

// tracedConn counts and times the server's Read and Write calls. The
// server writes every frame with a single Write, so the first byte of a
// Write is the frame type: the Welcome names the session's token, and a
// Report write is recorded as a server.write span.
type tracedConn struct {
	net.Conn
	tr       *tracer
	accepted time.Time

	token           atomic.Uint64
	reads, writes   atomic.Int64
	readNs, writeNs atomic.Int64
	once            sync.Once
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.readNs.Add(int64(time.Since(t0)))
	c.reads.Add(1)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	t1 := time.Now()
	c.writeNs.Add(int64(t1.Sub(t0)))
	c.writes.Add(1)
	if len(p) > 0 {
		switch wire.FrameType(p[0]) {
		case wire.FrameWelcome:
			if _, payload, ferr := wire.ReadFrame(bytes.NewReader(p), nil); ferr == nil {
				if w, werr := wire.DecodeWelcomeV3(payload); werr == nil {
					c.token.Store(w.Token)
				}
			}
		case wire.FrameReport:
			c.tr.add(span{Token: c.token.Load(), Name: "server.write", Start: c.tr.ns(t0), End: c.tr.ns(t1)})
		}
	}
	return n, err
}

func (c *tracedConn) Close() error {
	c.once.Do(func() {
		cs := connStats{
			Token:    c.token.Load(),
			Accepted: c.tr.ns(c.accepted),
			Reads:    c.reads.Load(),
			Writes:   c.writes.Load(),
			ReadNs:   c.readNs.Load(),
			WriteNs:  c.writeNs.Load(),
		}
		c.tr.mu.Lock()
		c.tr.conns = append(c.tr.conns, cs)
		c.tr.mu.Unlock()
	})
	return c.Conn.Close()
}

// tracedStore times the report store the server persists to and
// fetches from.
type tracedStore struct {
	store.Store
	tr *tracer
}

func (s *tracedStore) Put(rec store.Record) error {
	t0 := time.Now()
	err := s.Store.Put(rec)
	t1 := time.Now()
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, span{Token: rec.Token, Name: "store.put", Start: s.tr.ns(t0), End: s.tr.ns(t1)})
	if err != nil {
		s.tr.putErrs++
	} else if len(s.tr.sample) < maxSample {
		s.tr.sample = append(s.tr.sample, rec)
	}
	s.tr.mu.Unlock()
	return err
}

func (s *tracedStore) Get(token uint64) (store.Record, error) {
	t0 := time.Now()
	rec, err := s.Store.Get(token)
	s.tr.add(span{Token: token, Name: "store.get", Start: s.tr.ns(t0), End: s.tr.ns(time.Now())})
	return rec, err
}

// attributedLayers are the spans whose self time counts as a layer's
// own. Everything else in a session's wall time is unattributed: gaps
// between calls, an open-loop session's wait for a free sender, and the
// self time of client.finish — Finish itself writes one small frame, so
// the rest of its wait is server work (queue drain, detection, report
// encode) that no outside span can see.
var attributedLayers = map[string]bool{
	"client.dial": true, "client.send": true, "server.write": true,
	"store.put": true, "store.get": true,
	"detect": true, "report.encode": true,
}

// attribution is the outcome of splitting session wall times into
// layer self times.
type attribution struct {
	sessions     int
	wallNs       int64
	attributedNs int64
	self         map[string]int64 // self time per span name
	overflows    int              // sessions whose self times exceeded their wall
	sessionWall  map[int64]int64
}

func (a attribution) unattributedFrac() float64 {
	if a.wallNs == 0 {
		return 0
	}
	return float64(a.wallNs-a.attributedNs) / float64(a.wallNs)
}

// attribute computes self times for every root "session" span: client
// spans nest by their recorded parent, token spans nest in whichever
// client span contains their midpoint, and each instant of a parent is
// given to the child covering it (the highest-priority one where
// children overlap), so self times never sum past the wall time unless
// the accounting itself is wrong — which the overflow count reports.
func (t *tracer) attribute() attribution {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	bySession := map[int64][]span{}
	tokenOf := map[int64]uint64{}
	byToken := map[uint64][]span{}
	for _, s := range spans {
		if s.Session != 0 {
			bySession[s.Session] = append(bySession[s.Session], s)
			if s.Token != 0 {
				tokenOf[s.Session] = s.Token
			}
		} else if s.Token != 0 {
			byToken[s.Token] = append(byToken[s.Token], s)
		}
	}
	a := attribution{self: map[string]int64{}, sessionWall: map[int64]int64{}}
	for id, ss := range bySession {
		var root *span
		var children []span
		for i := range ss {
			switch ss[i].Parent {
			case "":
				if ss[i].Name == "session" {
					root = &ss[i]
				}
			case "session":
				children = append(children, ss[i])
			}
		}
		if root == nil {
			continue
		}
		self := selfTimes(*root, children, byToken[tokenOf[id]])
		var attributed int64
		for name, d := range self {
			a.self[name] += d
			if attributedLayers[name] {
				attributed += d
			}
		}
		a.sessions++
		a.wallNs += root.dur()
		a.attributedNs += attributed
		a.sessionWall[id] = root.dur()
		if attributed > root.dur() {
			a.overflows++
		}
	}
	return a
}

// priority orders overlapping children: where two cover the same
// instant, the more specific (deeper, server-side) one owns it.
var priority = map[string]int{"store.put": 3, "store.get": 3, "server.write": 2}

// selfTimes splits root's interval among its client children, and each
// client child's interval among the token spans that fall inside it.
func selfTimes(root span, children, tokenSpans []span) map[string]int64 {
	self := map[string]int64{}
	for name, d := range split(root, children) {
		self[name] += d
	}
	for _, c := range children {
		var inner []span
		for _, s := range tokenSpans {
			mid := s.Start + s.dur()/2
			if mid >= c.Start && mid < c.End {
				inner = append(inner, s)
			}
		}
		if len(inner) == 0 {
			continue
		}
		for name, d := range split(c, inner) {
			if name == c.Name {
				self[name] -= c.dur() - d // the parent keeps only what no child covers
			} else {
				self[name] += d
			}
		}
	}
	return self
}

// split assigns every instant of parent to the highest-priority child
// covering it (children are clipped to the parent), or to the parent
// itself when none does. The returned durations sum to parent.dur().
func split(parent span, children []span) map[string]int64 {
	cuts := []int64{parent.Start, parent.End}
	for _, c := range children {
		for _, x := range []int64{c.Start, c.End} {
			if x > parent.Start && x < parent.End {
				cuts = append(cuts, x)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]int64{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		owner, best := parent.Name, -1
		for _, c := range children {
			if c.Start <= lo && c.End >= hi && priority[c.Name] > best {
				owner, best = c.Name, priority[c.Name]
			}
		}
		out[owner] += hi - lo
	}
	return out
}

// sessionConns returns, per token, the first connection the server
// accepted for it — the session's own stream; later ones are fetches.
func (t *tracer) sessionConns() map[uint64]connStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[uint64]connStats{}
	for _, c := range t.conns {
		if c.Token == 0 {
			continue
		}
		if prev, ok := out[c.Token]; !ok || c.Accepted < prev.Accepted {
			out[c.Token] = c
		}
	}
	return out
}

// spanDurations returns the durations of every span with the given
// name, in milliseconds.
func (t *tracer) spanDurations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// dump writes the spans and connection accounting to path, one JSON
// object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	for _, c := range t.conns {
		if err := enc.Encode(map[string]connStats{"conn": c}); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
