// Package core implements the paper's primary contribution: the
// extension of Tarjan's offline lowest-common-ancestor algorithm to
// finding suprema in two-dimensional lattices (Figure 5), its online
// variant over delayed non-separating traversals (Figure 8), and the
// suprema-based online race detector (Figure 6) with thread compression
// (Theorem 5).
//
// # The algorithm, from theory to this implementation
//
// This note records the full
// chain of reasoning from the paper, and records where each moving part
// lives in code. Section/figure/theorem references are to "Race
// Detection in Two Dimensions" (SPAA 2015).
//
// ## 1. Races as suprema (Section 2.3, Figure 6)
//
// A race exists between two conflicting accesses that are unordered in
// the task graph. The naive detector keeps, per location, the sets R and
// W of all prior reads and writes and checks the current operation t
// against each element (internal/baseline/naive implements exactly
// that). The paper's first reduction: since
//
//	K ⊑ t  ⇔  sup K ⊑ t
//
// it suffices to keep sup R and sup W — one vertex each. detector.go is
// the direct transcription: locState{read, write int32}, On-Read
// comparing against W[loc], On-Write against both, each access folding
// itself into the stored supremum via
//
//	R[loc] ← Sup(R[loc], t).
//
// Where those two identifiers live is a constant-factor question the
// theorem leaves open, and the detector's running time turns on it.
// table.go keeps them in paged shadow memory: the states of 64
// consecutive locations share one 512-byte page, a page is found by its
// key loc>>6 through a small open-addressing directory behind a
// one-entry page cache, and a page's first location lives inline in its
// directory entry until a second one arrives, so sparse ids do not cost
// a page each. The reference map[Addr]*locState stays behind Storage,
// and the differential tests hold the two to identical reports.
//
// ## 2. Suprema from a traversal (Section 3, Figure 5, Theorem 1)
//
// Computing suprema on demand is where the two-dimensional lattice
// structure pays. Fix a monotone planar diagram and walk it in an order
// that is simultaneously topological, depth-first and left-to-right — a
// non-separating traversal (internal/traversal implements the canonical
// generator). Call the rightmost arc leaving a vertex its last-arc. The
// last-arcs visited so far form a forest, and Theorem 1 states: for x in
// the closure of the visited prefix and current vertex t, with r the
// root of x's tree in that forest,
//
//	sup{x, t} = t   if r was visited before t,
//	sup{x, t} = r   otherwise.
//
// The forest is maintained with a union-find structure keyed so Find
// returns the tree root: Walker.LastArc(s, t) performs Union(t, s)
// keeping t's label (internal/unionfind supports exactly this "named
// root" union), and Walker.Visit(t) marks t visited. Walker.Sup is then
// four lines — Find, a visited check, done. Theorems 2 and 3 give
// correctness and the Θ((m+n)·α(m+n,n)) bound; the E2 experiment
// measures it.
//
// ## 3. Going online: delayed traversals (Section 4, Figure 8,
// Theorem 4)
//
// A real execution cannot follow a non-separating traversal exactly: the
// arc from a task's final operation to its eventual joiner exists only
// once the join runs. The paper therefore delays such arcs until just
// before their target and leaves a stop-arc (s, ×) marker at the
// original position. The algorithm's only change (Figure 8 vs Figure 5)
// is the stop-arc handler: mark s unvisited, making the stranded root
// "observationally equivalent" to the not-yet-seen supremum. Queries now
// answer a relaxed specification — conditions (6) and (7) — which is
// exactly what the detector's comparisons and folds need. Walker.StopArc
// is that handler; the Theorem 4 property tests in walker_test.go check
// (6) literally and (7) through the detector's fold.
//
// ## 4. Thread compression (Section 4, Equation 8, Theorem 5)
//
// Storing a union-find node per operation costs Θ(operations). The
// paper's final move: collapse each maximal chain of non-delayed
// last-arcs — a "thread" — to a single identifier. In the fork-join
// execution model those threads are precisely the tasks, so the online
// event mapping (internal/fj.DetectorSink) is
//
//	fork(x, y) → (non-last) arc: no walker action
//	step  (op) → loop (t, t):    Visit + queries
//	join(x, y) → last-arc (y,x): Union(x, y) + Visit(x)
//	halt(x)    → stop-arc (x,×): StopArc(x)
//
// giving Θ(1) space per thread and per location (Theorem 5). The
// operation-granularity formulation is kept as fj.UncompressedSink;
// property tests confirm Equation 9 — identical verdicts — while the
// walker footprints diverge as Θ(ops) vs Θ(tasks).
//
// ## 5. The single-consumer ingestion contract (Theorem 4, applied)
//
// The detector object is deliberately not thread-safe: Theorem 4 is a
// statement about one traversal consumed in one order, and the walker's
// state (visited marks, the last-arc forest) is that order. What the
// theorem does license is *delay*: the stream fed to the detector need
// not be produced by the serial schedule, only delivered as a delayed
// non-separating traversal of the execution's 2D lattice. The
// concurrent ingestion pipeline (internal/goinstr) exploits exactly
// this split: instrumented tasks run on truly parallel goroutines,
// buffer their events into per-task bounded queues, and a single merge
// stage linearizes them — producing the canonical fork-first
// linearization, one valid delayed traversal among many — before
// handing the detector one event at a time. Concurrency ends
// at the merge stage; the detector's Θ(α) amortized serial consumption
// is the pipeline's drain, and verdicts are bit-identical to serial
// replay because the merged order *is* the serial order.
//
// Fanning the per-location checks out to location shards behind one
// structure stage does not pay: it ran at 0.64–0.80× this serial
// consumer on 2 vCPUs (EXPERIMENTS E16).
//
// ## 6. What is deliberately not here
//
// The walker trusts its input to be a delayed non-separating traversal
// of a 2D lattice; it does not re-verify that (the paper's precondition
// (1)). Producing valid traversals is the runtime's job
// (internal/fj.Line enforces the Figure 9 discipline) and checking
// foreign traces is fj.ValidateTrace's. Recognizing whether an arbitrary
// digraph even admits such a traversal is internal/order's Recognize2D.
package core
