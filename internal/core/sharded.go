package core

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/spsc"
)

// ShardedDetector splits race detection into a serial *structure* stage
// and parallel *location* shards. The single caller keeps feeding the
// fork-join structure in canonical order — exactly the Theorem 4 delayed
// traversal contract, now maintained in an om.Forest whose epoch-stamped
// write-once words concurrent readers can query lock-free — while every
// memory access is hashed by its location's page to one of N worker
// shards. Each shard owns a private slice of location storage (the paged
// store or the reference map) and replicates the Figure 6 On-Read /
// On-Write checks against the structure snapshot at the access's epoch.
//
// Verdict parity with the serial Detector is exact, not approximate:
//
//   - Same location → same shard, and the SPSC queues preserve dispatch
//     order, so per-location state machines see accesses in canonical
//     order — identical folds, identical recorded suprema.
//   - Each access carries the structural epoch current at dispatch, and
//     om.Snapshot answers Sup(x, t) at that epoch exactly as the serial
//     walker would have at that point of the stream.
//   - Every access carries a global sequence number; Finish merges the
//     per-shard race lists by sequence number, so the report order (and
//     any MaxRaces truncation) is byte-identical to serial detection.
//
// The detector is single-use: Finish (called implicitly by the verdict
// accessors) flushes and joins the shards, and further events panic.
type ShardedDetector struct {
	ord   *om.Forest
	begun []bool

	shards  []*detShard
	pending [][]shardOp // one fill slab per shard
	nshards int
	seq     uint64
	epoch   uint32
	storage Storage

	maxRaces int
	finished bool

	// Merged verdict (valid once finished).
	races []Race
	count int

	visits  uint64
	batches obs.Histogram
}

// shardOp is one memory access in flight from the structure stage to a
// location shard: 24 bytes, slab-packed.
type shardOp struct {
	loc   Addr
	seq   uint64 // global access sequence number (merge order)
	tw    int32  // task<<1 | write
	epoch uint32 // structural epoch current at dispatch
}

// detShard is one location shard: a private storage slice plus the
// worker goroutine state consuming its SPSC queue.
type detShard struct {
	q    *spsc.Queue[shardOp]
	ord  *om.Forest
	done chan struct{}

	table *locTable
	state map[Addr]*locState

	maxRaces int
	races    []Race
	seqs     []uint64
	count    int

	reads, writes, queries uint64
	mapProbes              uint64
	events                 uint64
}

// shardSlabSize is the dispatch granularity: accesses per slab handed
// from the structure stage to a shard.
const shardSlabSize = 256

// NewShardedDetector returns a sharded detector expecting about n
// vertices/threads, locHint distinct locations (hint only, split across
// shards), with `shards` location workers on the given storage backend.
// queueCap bounds each shard's in-flight accesses (spsc.DefaultCapacity
// when <= 0); a full queue blocks the structure stage (backpressure).
// maxRaces bounds the retained reports exactly like Detector.MaxRaces.
// shards must be at least 1 — though for 1 the serial Detector is the
// better choice (no handoff cost); callers normally gate on that.
func NewShardedDetector(n, locHint, shards int, storage Storage, queueCap, maxRaces int) *ShardedDetector {
	if shards < 1 {
		shards = 1
	}
	d := &ShardedDetector{
		ord:      om.NewForest(n),
		begun:    make([]bool, n),
		nshards:  shards,
		storage:  storage,
		maxRaces: maxRaces,
		epoch:    1,
	}
	perShardHint := locHint / shards
	for i := 0; i < shards; i++ {
		s := &detShard{
			q:        spsc.New[shardOp](queueCap, shardSlabSize),
			ord:      d.ord,
			done:     make(chan struct{}),
			maxRaces: maxRaces,
		}
		if storage == StorageMap {
			s.state = make(map[Addr]*locState, perShardHint)
		} else {
			s.table = newLocTable()
		}
		d.shards = append(d.shards, s)
		d.pending = append(d.pending, s.q.NewSlab())
		go s.run()
	}
	return d
}

// Shards returns the number of location shards.
func (d *ShardedDetector) Shards() int { return d.nshards }

// Storage reports the per-shard location storage backend.
func (d *ShardedDetector) Storage() Storage { return d.storage }

func (d *ShardedDetector) checkLive() {
	if d.finished {
		panic("core: event on sharded detector after Finish")
	}
}

func (d *ShardedDetector) growBegun(n int) {
	if n <= len(d.begun) {
		return
	}
	if n <= cap(d.begun) {
		// The backing array was zeroed at allocation and the slice only
		// ever grows, so extending in place exposes only false slots.
		d.begun = d.begun[:n]
		return
	}
	c := 2 * cap(d.begun)
	if c < n {
		c = n
	}
	nb := make([]bool, n, c)
	copy(nb, d.begun)
	d.begun = nb
}

// ensureBegun records t's begin (loop step) once. Accesses and joins
// call it too, mirroring the serial walker's Visit: in a valid stream t
// has begun already and this is a plain bool check.
func (d *ShardedDetector) ensureBegun(t int) {
	if t >= len(d.begun) {
		d.growBegun(t + 1)
	}
	if !d.begun[t] {
		d.begun[t] = true
		d.ord.Begin(t)
	}
}

// Begin records task t's begin event (the loop step (t, t)).
func (d *ShardedDetector) Begin(t int) {
	d.checkLive()
	d.visits++
	d.ensureBegun(t)
}

// Fork registers child u forked by t. Fork arcs are not last-arcs: no
// structural change, but u must exist before any query mentions it.
func (d *ShardedDetector) Fork(t, u int) {
	d.checkLive()
	d.ord.Grow(u + 1)
	d.growBegun(u + 1)
}

// Join performs the delayed last-arc (u, t) followed by t's loop step,
// advancing the structural epoch.
func (d *ShardedDetector) Join(t, u int) {
	d.checkLive()
	d.ord.Join(t, u)
	d.epoch = d.ord.Epoch()
	d.visits++
	d.ensureBegun(t)
}

// Halt performs t's stop-arc, advancing the structural epoch.
func (d *ShardedDetector) Halt(t int) {
	d.checkLive()
	d.ord.Halt(t)
	d.epoch = d.ord.Epoch()
}

// shardHash mixes a page key into a well-spread 64-bit value
// (Fibonacci multiplicative hash, folded so the low bits carry the
// high-entropy product bits).
func shardHash(key Addr) uint64 {
	h := uint64(key) * tableFib
	return h ^ (h >> 32)
}

// dispatch hashes the access to its location shard and appends it to
// the shard's fill slab; full slabs are handed to the shard's queue
// (blocking when the shard is behind — bounded memory by construction).
func (d *ShardedDetector) dispatch(t int, loc Addr, write bool) {
	d.checkLive()
	d.visits++
	d.ensureBegun(t)
	d.seq++
	tw := int32(t) << 1
	if write {
		tw |= 1
	}
	// Route by page, so a shard's pages fill as densely as the serial
	// detector's, and range-reduce the mixed hash to [0, nshards)
	// without division.
	i := int((uint64(uint32(shardHash(loc>>pageBits))) * uint64(d.nshards)) >> 32)
	p := append(d.pending[i], shardOp{loc: loc, seq: d.seq, tw: tw, epoch: d.epoch})
	if len(p) == cap(p) {
		// Push errors are impossible here: the queue is closed only by
		// Finish, and checkLive guards re-entry after that.
		_ = d.shards[i].q.Push(p)
		p = d.shards[i].q.NewSlab()
	}
	d.pending[i] = p
}

// OnRead dispatches a read of loc by task t (including its loop step).
func (d *ShardedDetector) OnRead(t int, loc Addr) { d.dispatch(t, loc, false) }

// OnWrite dispatches a write of loc by task t (including its loop step).
func (d *ShardedDetector) OnWrite(t int, loc Addr) { d.dispatch(t, loc, true) }

// OnAccessBatch dispatches a run of memory accesses, mirroring
// Detector.OnAccessBatch (the batch histogram included).
func (d *ShardedDetector) OnAccessBatch(batch []Access) {
	d.batches.Observe(len(batch))
	for i := range batch {
		a := &batch[i]
		d.dispatch(int(a.T), a.Loc, a.Write)
	}
}

// Finish flushes the pending slabs, closes the shard queues, waits for
// the workers to drain, and merges the per-shard race reports into the
// canonical (sequence-number) order. It is idempotent; the verdict
// accessors call it implicitly. Events after Finish panic.
func (d *ShardedDetector) Finish() {
	if d.finished {
		return
	}
	d.finished = true
	for i, p := range d.pending {
		if len(p) > 0 {
			_ = d.shards[i].q.Push(p)
		}
		d.pending[i] = nil
	}
	for _, s := range d.shards {
		s.q.Close()
	}
	for _, s := range d.shards {
		<-s.done
	}
	d.merge()
}

// merge interleaves the per-shard race lists by global sequence number.
// Each shard retains at most maxRaces reports — enough, because the
// global first-maxRaces prefix draws at most that many from any shard —
// so the merged, truncated list is byte-identical to serial retention.
func (d *ShardedDetector) merge() {
	total := 0
	for _, s := range d.shards {
		d.count += s.count
		total += len(s.races)
	}
	if total == 0 {
		return
	}
	type seqRace struct {
		seq uint64
		r   Race
	}
	all := make([]seqRace, 0, total)
	for _, s := range d.shards {
		for i, r := range s.races {
			all = append(all, seqRace{seq: s.seqs[i], r: r})
		}
	}
	// Stable: one write can report a read-write and a write-write race
	// under the same sequence number; both come from the same shard in
	// serial order, which stability preserves.
	sort.SliceStable(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	if d.maxRaces > 0 && len(all) > d.maxRaces {
		all = all[:d.maxRaces]
	}
	d.races = make([]Race, len(all))
	for i, sr := range all {
		d.races[i] = sr.r
	}
}

// Races returns the merged race reports in canonical detection order,
// finishing the detector if needed.
func (d *ShardedDetector) Races() []Race {
	d.Finish()
	return d.races
}

// Count returns the total number of races reported across all shards.
func (d *ShardedDetector) Count() int {
	d.Finish()
	return d.count
}

// Racy reports whether any race was detected.
func (d *ShardedDetector) Racy() bool { return d.Count() > 0 }

// Locations returns the number of tracked memory locations (summed over
// shards; the hash partition makes shard location sets disjoint).
func (d *ShardedDetector) Locations() int {
	d.Finish()
	n := 0
	for _, s := range d.shards {
		n += s.locations()
	}
	return n
}

// BytesPerLocation mirrors Detector.BytesPerLocation.
func (d *ShardedDetector) BytesPerLocation() int { return 8 }

// MemoryBytes estimates the detector's state: the order-maintenance
// forest plus every shard's location storage.
func (d *ShardedDetector) MemoryBytes() int {
	d.Finish()
	n := d.ord.MemoryBytes() + len(d.begun)
	for _, s := range d.shards {
		n += s.bytes()
	}
	return n
}

// Stats snapshots the operation counters, summed across shards,
// finishing the detector first (the workers own their counters while
// running). SupQueries and the storage counters match what the serial
// detector would report for the same stream; Finds equals SupQueries
// (each shard find answers exactly one query) and PathSteps is zero —
// readers follow write-once chains and never compress — so the
// Theorem 3 accounting (obs.CheckAccounting) holds unchanged.
func (d *ShardedDetector) Stats() Stats {
	d.Finish()
	var st Stats
	st.Visits = d.visits
	st.Unions = d.ord.Joins()
	st.Shards = uint64(d.nshards)
	for _, s := range d.shards {
		st.Reads += s.reads
		st.Writes += s.writes
		st.SupQueries += s.queries
		st.Finds += s.queries
		probes, rehash, grows := s.storageStats()
		st.TableProbes += probes
		st.TableRehashSteps += rehash
		st.TableGrows += grows
		if s.events > st.ShardEventsMax {
			st.ShardEventsMax = s.events
		}
		qs := s.q.Stats()
		st.CrossShardHandoffs += qs.Pushed
		st.ShardStalls += qs.Stalls
	}
	st.Races = uint64(d.count)
	st.Locations = uint64(d.Locations())
	st.BytesPerLocation = float64(d.BytesPerLocation())
	st.Batches = d.batches.Count()
	st.BatchSizes = d.batches.Snapshot()
	return st
}

// CheckAccounting verifies the Theorem 3/5 operation accounting on the
// merged counters; see Stats for why the bounds carry over unchanged.
func (d *ShardedDetector) CheckAccounting() error {
	return obs.CheckAccounting(d.Stats(), d.ord.Len())
}

// loc returns the shard-private state slot for a, mirroring the
// serial detector's lookup (locTable.get or Detector.mapLoc).
func (s *detShard) loc(a Addr) *locState {
	if s.table != nil {
		return s.table.get(a)
	}
	s.mapProbes++
	st, ok := s.state[a]
	if !ok {
		st = &locState{read: noAccess, write: noAccess}
		s.state[a] = st
	}
	return st
}

func (s *detShard) locations() int {
	if s.table != nil {
		return s.table.locations()
	}
	return len(s.state)
}

func (s *detShard) bytes() int {
	if s.table != nil {
		return s.table.bytes()
	}
	const mapEntryOverhead = 16
	return len(s.state) * (8 + mapEntryOverhead)
}

func (s *detShard) storageStats() (probes, rehashSteps, grows uint64) {
	if s.table != nil {
		return s.table.stats()
	}
	return s.mapProbes, 0, 0
}

func (s *detShard) report(r Race, seq uint64) {
	s.count++
	if s.maxRaces == 0 || len(s.races) < s.maxRaces {
		s.races = append(s.races, r)
		s.seqs = append(s.seqs, seq)
	}
}

// run is the shard worker: pop a slab, load the current structure
// snapshot (the queue handoff guarantees every word stamped at or
// before the slab's epochs is visible), and replicate the serial
// OnRead/OnWrite checks and folds against private location state.
func (s *detShard) run() {
	defer close(s.done)
	for {
		slab, ok := s.q.Pop()
		if !ok {
			return
		}
		snap := s.ord.Snapshot()
		for i := range slab {
			op := &slab[i]
			t := int(op.tw >> 1)
			tt := op.tw >> 1
			st := s.loc(op.loc)
			if op.tw&1 != 0 { // write: mirror Detector.OnWrite
				s.writes++
				if r := st.read; r != noAccess && r != tt {
					s.queries++
					if sup := snap.SupAt(int(r), t, op.epoch); sup != t {
						s.report(Race{Loc: op.loc, Current: t, Prior: sup, Kind: ReadWrite}, op.seq)
					}
				}
				if w := st.write; w == noAccess || w == tt {
					st.write = tt
				} else {
					s.queries++
					sup := snap.SupAt(int(w), t, op.epoch)
					if sup != t {
						s.report(Race{Loc: op.loc, Current: t, Prior: sup, Kind: WriteWrite}, op.seq)
					}
					st.write = int32(sup)
				}
			} else { // read: mirror Detector.OnRead
				s.reads++
				if w := st.write; w != noAccess && w != tt {
					s.queries++
					if sup := snap.SupAt(int(w), t, op.epoch); sup != t {
						s.report(Race{Loc: op.loc, Current: t, Prior: sup, Kind: WriteRead}, op.seq)
					}
				}
				if r := st.read; r == noAccess || r == tt {
					st.read = tt
				} else {
					s.queries++
					st.read = int32(snap.SupAt(int(r), t, op.epoch))
				}
			}
		}
		s.events += uint64(len(slab))
		s.q.Recycle(slab)
	}
}
