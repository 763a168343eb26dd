// Package obs is the detector observability layer: a flat snapshot of
// operation counters shared by every engine, turning the paper's
// accounting theorems into live numbers.
//
// Theorems 2/3/5 are accounting claims — m supremum queries cost exactly
// m union-find finds and at most n−1 unions, so the amortized cost per
// memory operation is Θ(α). The counters here make those claims
// observable on every run instead of reconstructed offline: each engine
// exposes a Stats() snapshot, cmd/bench2d embeds it in every
// BENCH_race2d.json cell, and CheckAccounting asserts the bounds online
// so tests and CI gate on them directly.
//
// The counters themselves are plain uint64 fields on the hot structures
// (no atomics: the detector is serial by construction), so the steady
// state stays allocation-free and the cost per memory operation is a
// handful of integer increments.
package obs

import (
	"fmt"
	"strings"
)

// Stats is a snapshot of operation counters. It is a union of the
// fields every engine family reports; an engine fills the counters it
// tracks and leaves the rest zero (omitted from JSON). All counts are
// cumulative since the engine was created.
type Stats struct {
	// Memory operations observed by the engine.
	Reads  uint64 `json:"reads,omitempty"`
	Writes uint64 `json:"writes,omitempty"`

	// Fork-join structure events (reported by the runtime's line).
	Forks uint64 `json:"forks,omitempty"`
	Joins uint64 `json:"joins,omitempty"`
	Halts uint64 `json:"halts,omitempty"`

	// Suprema walker (the 2D detector's Figure 5/8 state).
	SupQueries uint64 `json:"sup_queries,omitempty"` // Sup(x, t) queries posed — the paper's m
	Visits     uint64 `json:"visits,omitempty"`      // loop steps (t, t)

	// Union-find (Theorem 3: exactly m finds, at most n−1 unions).
	Finds     uint64 `json:"finds,omitempty"`
	Unions    uint64 `json:"unions,omitempty"`
	PathSteps uint64 `json:"path_steps,omitempty"` // parent rewrites during path halving

	// Location storage. The paged store counts directory work: a page-
	// cache hit costs no probe. The map storage counts one probe per
	// lookup and leaves the other two at zero.
	TableProbes      uint64 `json:"table_probes,omitempty"`       // directory slots examined by lookups that missed the page cache
	TableRehashSteps uint64 `json:"table_rehash_steps,omitempty"` // directory entries re-placed by doublings
	TableGrows       uint64 `json:"table_grows,omitempty"`        // directory doublings

	// Vector-clock family (vc, fasttrack, naive).
	ClockJoins   uint64 `json:"clock_joins,omitempty"`           // pointwise clock merges
	ClockEntries uint64 `json:"clock_entries_scanned,omitempty"` // entries touched by merges and race checks — the Θ(n) factor
	EpochHits    uint64 `json:"epoch_hits,omitempty"`            // FastTrack same-epoch fast paths
	ReadShares   uint64 `json:"read_shares,omitempty"`           // FastTrack epoch→vector promotions
	SetScans     uint64 `json:"accesses_scanned,omitempty"`      // naive R/W-set elements compared

	// Order-maintenance family (sporder). SP-bags reports its bag
	// operations through Finds/Unions: its bags are union-find sets.
	ListInserts  uint64 `json:"list_inserts,omitempty"`  // OM list insertions (two per segment)
	OrderQueries uint64 `json:"order_queries,omitempty"` // OM precedence queries (two Before calls each)

	// Common reporting surface.
	Races            uint64  `json:"races,omitempty"`
	Locations        uint64  `json:"locations,omitempty"`
	BytesPerLocation float64 `json:"bytes_per_location,omitempty"`

	// Batched ingestion: histogram of OnAccessBatch run lengths in
	// power-of-two buckets (see Histogram.Snapshot).
	Batches    uint64   `json:"batches,omitempty"`
	BatchSizes []uint64 `json:"batch_size_hist,omitempty"`

	// Concurrent ingestion pipeline (goinstr): backpressure accounting
	// for the bounded per-producer queues feeding the merge stage.
	Producers      uint64 `json:"producers,omitempty"`       // event queues created (tasks that produced)
	EventsBuffered uint64 `json:"events_buffered,omitempty"` // events that passed through the queues
	MaxQueueDepth  uint64 `json:"max_queue_depth,omitempty"` // high-water mark of any single queue (events)
	ProducerStalls uint64 `json:"producer_stalls,omitempty"` // pushes that blocked on a full queue

	// Sharded detection backend (core.ShardedDetector): the serial
	// structure stage dispatching per-location work to N shard workers.
	Shards             uint64 `json:"shards,omitempty"`               // location shards (1 = serial path, field omitted)
	ShardEventsMax     uint64 `json:"shard_events_max,omitempty"`     // busiest shard's accesses — the imbalance ceiling
	CrossShardHandoffs uint64 `json:"cross_shard_handoffs,omitempty"` // accesses handed from the structure stage to shard queues
	ShardStalls        uint64 `json:"shard_stalls,omitempty"`         // dispatches that blocked on a full shard queue

	// Streaming detection service (internal/server): wire-level
	// accounting, aggregated across sessions. Per-session detector
	// reports leave these zero, so local and remote Report JSON stay
	// byte-identical.
	Sessions         uint64 `json:"sessions,omitempty"`          // sessions accepted over the server's lifetime
	SessionsRejected uint64 `json:"sessions_rejected,omitempty"` // connections refused at the live-session cap
	Evictions        uint64 `json:"evictions,omitempty"`         // idle sessions evicted
	Frames           uint64 `json:"frames,omitempty"`            // event frames ingested
	WireBytes        uint64 `json:"wire_bytes,omitempty"`        // frame payload bytes received

	// Fault tolerance (wire resume). The client side reports its
	// circuit-breaker surface (reconnects, resends, heartbeats missed);
	// the server side reports resume traffic (sessions re-attached,
	// duplicate batches discarded, handshakes refused). Per-session
	// detector Reports leave all of these zero, preserving local/remote
	// byte parity.
	Reconnects        uint64 `json:"reconnects,omitempty"`         // connections re-established after a transport fault
	Resends           uint64 `json:"resends,omitempty"`            // replay-buffer batches resent after resume
	DupsDropped       uint64 `json:"dups_dropped,omitempty"`       // duplicate-sequence batches discarded (server)
	HeartbeatsMissed  uint64 `json:"heartbeats_missed,omitempty"`  // dead-peer declarations from heartbeat silence
	Resumes           uint64 `json:"resumes,omitempty"`            // sessions successfully re-attached (server)
	HandshakeRefusals uint64 `json:"handshake_refusals,omitempty"` // connections refused before a session existed (server)

	// Block compression (wire EventsBlock frames). Both ends
	// report the same three counters: compressed event blocks carried,
	// their payload bytes on the wire, and the raw record-form bytes
	// they stand for — WireBytesRaw / WireBytesBlocks is the achieved
	// compression ratio. A client counts each batch once, when it is
	// encoded, so its counters exclude resends; a server counts every
	// block it read, duplicates included. Per-session detector Reports
	// leave these zero, preserving local/remote byte parity.
	WireBlocks      uint64 `json:"wire_blocks,omitempty"`       // compressed event blocks sent/received
	WireBytesBlocks uint64 `json:"wire_bytes_blocks,omitempty"` // block payload bytes on the wire
	WireBytesRaw    uint64 `json:"wire_bytes_raw,omitempty"`    // raw record-form bytes the blocks stand for
}

// CompressRatio returns the achieved wire compression ratio (raw bytes
// per wire byte), or 1 when no blocks flowed.
func (s Stats) CompressRatio() float64 {
	if s.WireBytesBlocks == 0 {
		return 1
	}
	return float64(s.WireBytesRaw) / float64(s.WireBytesBlocks)
}

// MemOps returns the total memory operations observed.
func (s Stats) MemOps() uint64 { return s.Reads + s.Writes }

// UnionFindOps returns the total union-find operations (Theorem 3's
// m + n accounting unit).
func (s Stats) UnionFindOps() uint64 { return s.Finds + s.Unions }

// AmortizedSteps returns the union-find work (finds + unions + path
// compression steps) per memory operation — the quantity Theorem 5
// bounds by Θ(α). Zero when no memory operations were observed.
func (s Stats) AmortizedSteps() float64 {
	ops := s.MemOps()
	if ops == 0 {
		return 0
	}
	return float64(s.Finds+s.Unions+s.PathSteps) / float64(ops)
}

// Add accumulates other into s field by field (histogram buckets
// included), for aggregating shards of a fleet.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Forks += other.Forks
	s.Joins += other.Joins
	s.Halts += other.Halts
	s.SupQueries += other.SupQueries
	s.Visits += other.Visits
	s.Finds += other.Finds
	s.Unions += other.Unions
	s.PathSteps += other.PathSteps
	s.TableProbes += other.TableProbes
	s.TableRehashSteps += other.TableRehashSteps
	s.TableGrows += other.TableGrows
	s.ClockJoins += other.ClockJoins
	s.ClockEntries += other.ClockEntries
	s.EpochHits += other.EpochHits
	s.ReadShares += other.ReadShares
	s.SetScans += other.SetScans
	s.ListInserts += other.ListInserts
	s.OrderQueries += other.OrderQueries
	s.Races += other.Races
	s.Locations += other.Locations
	s.Batches += other.Batches
	s.Producers += other.Producers
	s.EventsBuffered += other.EventsBuffered
	if other.MaxQueueDepth > s.MaxQueueDepth {
		s.MaxQueueDepth = other.MaxQueueDepth // a high-water mark, not a volume
	}
	s.ProducerStalls += other.ProducerStalls
	s.Shards += other.Shards
	if other.ShardEventsMax > s.ShardEventsMax {
		s.ShardEventsMax = other.ShardEventsMax // a high-water mark, not a volume
	}
	s.CrossShardHandoffs += other.CrossShardHandoffs
	s.ShardStalls += other.ShardStalls
	s.Sessions += other.Sessions
	s.SessionsRejected += other.SessionsRejected
	s.Evictions += other.Evictions
	s.Frames += other.Frames
	s.WireBytes += other.WireBytes
	s.Reconnects += other.Reconnects
	s.Resends += other.Resends
	s.DupsDropped += other.DupsDropped
	s.HeartbeatsMissed += other.HeartbeatsMissed
	s.Resumes += other.Resumes
	s.HandshakeRefusals += other.HandshakeRefusals
	s.WireBlocks += other.WireBlocks
	s.WireBytesBlocks += other.WireBytesBlocks
	s.WireBytesRaw += other.WireBytesRaw
	for len(s.BatchSizes) < len(other.BatchSizes) {
		s.BatchSizes = append(s.BatchSizes, 0)
	}
	for i, v := range other.BatchSizes {
		s.BatchSizes[i] += v
	}
}

// String renders the non-zero counters compactly, in declaration order.
func (s Stats) String() string {
	var b strings.Builder
	put := func(name string, v uint64) {
		if v == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, v)
	}
	put("reads", s.Reads)
	put("writes", s.Writes)
	put("forks", s.Forks)
	put("joins", s.Joins)
	put("halts", s.Halts)
	put("sup-queries", s.SupQueries)
	put("visits", s.Visits)
	put("finds", s.Finds)
	put("unions", s.Unions)
	put("path-steps", s.PathSteps)
	put("table-probes", s.TableProbes)
	put("rehash-steps", s.TableRehashSteps)
	put("grows", s.TableGrows)
	put("clock-joins", s.ClockJoins)
	put("clock-entries", s.ClockEntries)
	put("epoch-hits", s.EpochHits)
	put("read-shares", s.ReadShares)
	put("set-scans", s.SetScans)
	put("list-inserts", s.ListInserts)
	put("order-queries", s.OrderQueries)
	put("races", s.Races)
	put("locations", s.Locations)
	put("batches", s.Batches)
	put("producers", s.Producers)
	put("events-buffered", s.EventsBuffered)
	put("max-queue-depth", s.MaxQueueDepth)
	put("producer-stalls", s.ProducerStalls)
	put("shards", s.Shards)
	put("shard-events-max", s.ShardEventsMax)
	put("cross-shard-handoffs", s.CrossShardHandoffs)
	put("shard-stalls", s.ShardStalls)
	put("sessions", s.Sessions)
	put("sessions-rejected", s.SessionsRejected)
	put("evictions", s.Evictions)
	put("frames", s.Frames)
	put("wire-bytes", s.WireBytes)
	put("reconnects", s.Reconnects)
	put("resends", s.Resends)
	put("dups-dropped", s.DupsDropped)
	put("heartbeats-missed", s.HeartbeatsMissed)
	put("resumes", s.Resumes)
	put("handshake-refusals", s.HandshakeRefusals)
	put("wire-blocks", s.WireBlocks)
	put("wire-bytes-blocks", s.WireBytesBlocks)
	put("wire-bytes-raw", s.WireBytesRaw)
	if s.WireBlocks > 0 {
		fmt.Fprintf(&b, " compress-ratio=%.1f", s.CompressRatio())
	}
	if s.MemOps() > 0 && s.UnionFindOps() > 0 {
		fmt.Fprintf(&b, " amortized-uf-steps/op=%.2f", s.AmortizedSteps())
	}
	return b.String()
}

// Source is the common observability surface: anything that can report
// an operation-count snapshot.
type Source interface {
	Stats() Stats
}

// AlphaSlack bounds the amortized union-find steps per operation that
// CheckAccounting accepts. Tarjan's bound is α(m, n) per operation with
// α ≤ 4 for every feasible input; path halving rewrites at most one
// parent per node visited, so total steps stay within a small constant
// of (m + n)·α. The slack is deliberately generous — it catches a
// broken structure (linear chains), not a lost micro-optimization.
const AlphaSlack = 8

// CheckAccounting verifies the paper's operation-accounting claims on a
// snapshot from the 2D detector family:
//
//   - Theorem 2/3: answering the m supremum queries posed so far cost
//     exactly m union-find finds (Finds == SupQueries) and at most n−1
//     unions for n tracked vertices.
//   - Theorem 5 (amortization): total union-find work, including path
//     compression steps, is within AlphaSlack·(m + n).
//
// n is the number of vertices the walker tracks. A nil error means the
// live counters match the theorems' accounting.
func CheckAccounting(s Stats, n int) error {
	if s.Finds != s.SupQueries {
		return fmt.Errorf("obs: finds = %d, want exactly m = %d sup queries (Theorem 3)", s.Finds, s.SupQueries)
	}
	if n > 0 && s.Unions > uint64(n-1) {
		return fmt.Errorf("obs: unions = %d exceeds n-1 = %d for n = %d vertices (Theorem 3)", s.Unions, n-1, n)
	}
	if budget := AlphaSlack * (s.Finds + s.Unions + uint64(n)); s.PathSteps > budget {
		return fmt.Errorf("obs: path compression steps = %d exceed %d·(m+n) = %d (Theorem 5 amortization)",
			s.PathSteps, AlphaSlack, budget)
	}
	return nil
}
