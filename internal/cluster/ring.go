// Package cluster is the horizontal scaling layer for raced: a
// consistent-hash membership ring over N backend servers, a health
// prober that drives member states from /healthz (or a bare TCP
// probe), and a session-routing gateway (racedctl) that proxies the
// wire protocol frame-by-frame — compressed blocks pass through
// untouched — while re-attaching in-flight sessions to a new backend
// when their home backend drains or dies.
//
// # Routing model
//
// A fresh session is placed by consistent-hashing a routing key — the
// client's Hello.RouteKey when non-zero, a gateway-generated key
// otherwise — over the ring's hash points (Replication virtual points
// per member, so load spreads evenly and a membership change only
// moves ~1/N of the keyspace). The gateway learns the backend-issued
// resume token by sniffing the Welcome frame, so a reconnecting client
// presenting that token is routed straight back to the same backend
// and the ordinary bounded-window resume applies.
//
// When the home backend is gone (Down, Draining, or simply forgotten),
// the token routes to a fresh backend instead. That backend has no
// state for the session and answers with the documented unknown-resume
// error; a client dialed with RetainAll (client.WithRetainAll, and
// race2d -remote's default) replays the whole stream into a fresh
// session and the verdict stays byte-identical. Migration is therefore
// invisible above client.Session, at the memory cost RetainAll states.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// MemberState is a backend's standing in the ring.
type MemberState int

const (
	// StateUp routes: the member answers health probes.
	StateUp MemberState = iota
	// StateDraining exists but refuses fresh sessions (/healthz said
	// "draining"); Lookup skips it and the gateway detaches its
	// in-flight sessions so they re-route while the drain is graceful.
	StateDraining
	// StateDown failed ProbeFails consecutive probes; Lookup skips it.
	StateDown
)

func (s MemberState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("MemberState(%d)", int(s))
	}
}

// DefaultReplication is the hash-point count per member when Ring's
// replication is left unset. 64 points over a handful of members keeps
// the keyspace imbalance within a few percent.
const DefaultReplication = 64

// point is one virtual node: a position on the hash circle owned by a
// member.
type point struct {
	hash uint64
	addr string
}

// Ring is a consistent-hash ring over named members with per-member
// health states. Lookups walk the circle clockwise from the key's hash
// and land on the first point whose member is Up, so a member going
// Down or Draining sheds exactly its own arcs onto its successors.
// All methods are safe for concurrent use.
type Ring struct {
	mu          sync.RWMutex
	replication int
	members     map[string]MemberState
	points      []point // sorted by hash
}

// NewRing builds an empty ring with the given hash-point replication
// per member (DefaultReplication when <= 0).
func NewRing(replication int) *Ring {
	if replication <= 0 {
		replication = DefaultReplication
	}
	return &Ring{replication: replication, members: make(map[string]MemberState)}
}

// hashPoint positions virtual node i of a member on the circle.
func hashPoint(addr string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", addr, i)
	return h.Sum64()
}

// hashKey positions a routing key on the circle. Keys and points use
// the same FNV-1a hash family so the mapping is stable across
// processes — a gateway restart reproduces the same placement.
func hashKey(key uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(key >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// Add inserts a member (initially Up). Adding an existing member only
// resets its state to Up.
func (r *Ring) Add(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[addr]; ok {
		r.members[addr] = StateUp
		return
	}
	r.members[addr] = StateUp
	for i := 0; i < r.replication; i++ {
		r.points = append(r.points, point{hash: hashPoint(addr, i), addr: addr})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its hash points.
func (r *Ring) Remove(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[addr]; !ok {
		return
	}
	delete(r.members, addr)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.addr != addr {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// SetState updates a member's health state. Unknown members are
// ignored. Reports whether the state changed.
func (r *Ring) SetState(addr string, st MemberState) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.members[addr]
	if !ok || old == st {
		return false
	}
	r.members[addr] = st
	return true
}

// State returns a member's current state (StateDown for unknown
// members — an unknown backend routes nothing).
func (r *Ring) State(addr string) MemberState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if st, ok := r.members[addr]; ok {
		return st
	}
	return StateDown
}

// Members snapshots the membership as addr -> state.
func (r *Ring) Members() map[string]MemberState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]MemberState, len(r.members))
	for a, st := range r.members {
		out[a] = st
	}
	return out
}

// UpCount returns how many members are currently routable.
func (r *Ring) UpCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, st := range r.members {
		if st == StateUp {
			n++
		}
	}
	return n
}

// Lookup maps a routing key to the address of the first Up member
// clockwise from the key's hash. ok is false when no member is Up.
func (r *Ring) Lookup(key uint64) (addr string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.points)
	if n == 0 {
		return "", false
	}
	h := hashKey(key)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if r.members[p.addr] == StateUp {
			return p.addr, true
		}
	}
	return "", false
}
