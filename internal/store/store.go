// Package store is the durable, tamper-evident report store behind the
// raced session server. The paper's product is the Report; everything
// upstream of this package (resume, compression, clustering)
// scales how fast reports are produced — this package is where they
// live once produced.
//
// Two backends share one Store interface. Memory is the default: the
// in-process cache the server always had, now with the same retention
// semantics as the durable path. Log is the durable backend: an
// append-only chain of segment files whose records are length-prefixed,
// CRC-framed and SHA-256-linked each to its predecessor (record.go),
// with periodic anchor records checkpointing the chain. Opening a log
// store scans and verifies the whole chain to rebuild the in-memory
// token index, so a freshly restarted server serves every report the
// previous process acked — and refuses, with a typed error, to serve
// anything at or past the first tampered record it finds.
//
// Retention is a property of the store, not a janitor: Get filters
// records past their retention age, and Compact reclaims space by
// deleting whole segments whose records have all expired (the active
// segment is never deleted). Deleting a whole prefix segment preserves
// chain verifiability because every segment header carries the chain
// hash it starts from.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Sentinel errors for retrieval and integrity.
var (
	// ErrNotFound reports a token the store has no (unexpired) record
	// for.
	ErrNotFound = errors.New("store: no report for token")
	// ErrTampered reports a store whose chain failed verification; it is
	// the target of errors.Is for every *TamperError.
	ErrTampered = errors.New("store: log tampered")
	// ErrCompacted reports a chain position already pruned by retention
	// compaction (ReadFramed); a replica behind it cannot catch up from
	// this log.
	ErrCompacted = errors.New("store: chain position compacted away")
)

// TamperError pinpoints the first record that failed verification.
// It wraps ErrTampered (errors.Is) and carries the segment file, byte
// offset and chain-wide record index of the damage.
type TamperError struct {
	// Segment is the base name of the damaged segment file.
	Segment string
	// Offset is the byte offset of the first bad record within it.
	Offset int64
	// Index is the zero-based index of the first bad record in the
	// whole chain (counting every retained record, anchors included).
	Index int
	// Cause says what failed: CRC, chain link, anchor mismatch,
	// truncation.
	Cause error
}

func (e *TamperError) Error() string {
	return fmt.Sprintf("store: log tampered at %s+%d (record %d): %v", e.Segment, e.Offset, e.Index, e.Cause)
}

func (e *TamperError) Unwrap() error { return ErrTampered }

// Stats is a snapshot of a store's size and operation counters.
type Stats struct {
	// Records and Bytes are the live (retained, unexpired) report
	// records and their framed bytes. Segments counts log segment files
	// (0 for the memory backend).
	Records  int
	Bytes    int64
	Segments int

	// Operation counters since open.
	Puts           uint64
	PutFailures    uint64
	Gets           uint64
	Hits           uint64
	Compactions    uint64
	SegmentsPruned uint64
	VerifyFailures uint64

	// TenantBytes and TenantRecords break the live set down by tenant.
	TenantBytes   map[string]int64
	TenantRecords map[string]uint64
}

// Store is a report store. Implementations are safe for concurrent use.
type Store interface {
	// Put persists one finished report. The server calls it before
	// acking Finish, so a record that Put accepted survives the process
	// (for durable backends).
	Put(rec Record) error
	// Get retrieves the report persisted under a resume token, or
	// ErrNotFound (absent or expired), or a *TamperError when the token
	// falls at or past the first damaged record of a tampered log.
	Get(token uint64) (Record, error)
	// List returns the live records' metadata (JSON omitted), oldest
	// first.
	List() ([]Record, error)
	// Verify re-checks the whole store's integrity and returns the
	// first damage found as a *TamperError.
	Verify() error
	// Compact applies retention: it drops expired records (memory) or
	// deletes fully-expired closed segments (log). Cheap when there is
	// nothing to do; the server's janitor calls it periodically.
	Compact() error
	// TenantBytes reports the live stored bytes attributed to a tenant
	// — the session manager's storage-quota input.
	TenantBytes(tenant string) int64
	// Stats snapshots the store counters.
	Stats() Stats
	// Close releases the backend (flushes and closes segment files).
	Close() error
}

// now is the store clock, a hook for retention tests.
var now = time.Now

// expired reports whether a record persisted at unix seconds is past a
// retention window (0 = keep forever).
func expired(unix int64, retention time.Duration) bool {
	return retention > 0 && now().Sub(time.Unix(unix, 0)) > retention
}

// ---- memory backend ------------------------------------------------------

// Memory is the non-durable Store: the finished-report cache the server
// always kept, behind the common interface. Verify always passes (there
// are no bytes to tamper with) and Compact drops expired records.
type Memory struct {
	retention time.Duration

	mu   sync.Mutex
	recs map[uint64]Record

	puts, gets, hits, compactions uint64
}

// NewMemory returns an empty in-memory store whose records expire after
// retention (0 = keep forever).
func NewMemory(retention time.Duration) *Memory {
	return &Memory{retention: retention, recs: make(map[uint64]Record)}
}

// Put stores rec, stamping Unix when unset.
func (m *Memory) Put(rec Record) error {
	if rec.Unix == 0 {
		rec.Unix = now().Unix()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puts++
	m.recs[rec.Token] = rec
	return nil
}

// Get retrieves the record stored under token.
func (m *Memory) Get(token uint64) (Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gets++
	rec, ok := m.recs[token]
	if !ok || expired(rec.Unix, m.retention) {
		return Record{}, fmt.Errorf("%w: %#x", ErrNotFound, token)
	}
	m.hits++
	return rec, nil
}

// List returns the live records, oldest first.
func (m *Memory) List() ([]Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.recs))
	for _, rec := range m.recs {
		if !expired(rec.Unix, m.retention) {
			rec.JSON = nil
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Unix != out[j].Unix {
			return out[i].Unix < out[j].Unix
		}
		return out[i].Token < out[j].Token
	})
	return out, nil
}

// Verify is trivially clean for the memory backend.
func (m *Memory) Verify() error { return nil }

// Compact drops expired records.
func (m *Memory) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.compactions++
	for token, rec := range m.recs {
		if expired(rec.Unix, m.retention) {
			delete(m.recs, token)
		}
	}
	return nil
}

// TenantBytes sums the live record bodies attributed to tenant.
func (m *Memory) TenantBytes(tenant string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b int64
	for _, rec := range m.recs {
		if rec.Tenant == tenant && !expired(rec.Unix, m.retention) {
			b += int64(len(rec.JSON))
		}
	}
	return b
}

// Stats snapshots the memory store.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Puts:          m.puts,
		Gets:          m.gets,
		Hits:          m.hits,
		Compactions:   m.compactions,
		TenantBytes:   make(map[string]int64),
		TenantRecords: make(map[string]uint64),
	}
	for _, rec := range m.recs {
		if expired(rec.Unix, m.retention) {
			continue
		}
		st.Records++
		st.Bytes += int64(len(rec.JSON))
		st.TenantBytes[rec.Tenant] += int64(len(rec.JSON))
		st.TenantRecords[rec.Tenant]++
	}
	return st
}

// Close is a no-op for the memory backend.
func (m *Memory) Close() error { return nil }
