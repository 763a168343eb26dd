package repl

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

// startFollower runs a minimal follower: a TCP listener that routes
// FrameReplHello streams into a ReplicaSet, exactly as the server does.
func startFollower(t *testing.T, dir, key string) (addr string, rs *ReplicaSet, stop func()) {
	t.Helper()
	rs, err := OpenReplicaSet(dir, true, t.Logf)
	if err != nil {
		t.Fatalf("OpenReplicaSet: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if err := wire.ReadMagic(conn); err != nil {
					return
				}
				ft, payload, err := wire.ReadFrame(conn, nil)
				if err != nil || ft != wire.FrameReplHello {
					return
				}
				rs.Serve(conn, key, payload)
			}(conn)
		}
	}()
	return ln.Addr().String(), rs, func() { ln.Close() }
}

// restartFollower rebinds a follower on a fixed address (the follower
// restarting mid-stream).
func restartFollower(t *testing.T, addr, dir, key string) (*ReplicaSet, func()) {
	t.Helper()
	rs, err := OpenReplicaSet(dir, true, t.Logf)
	if err != nil {
		t.Fatalf("OpenReplicaSet: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten %s: %v", addr, err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if err := wire.ReadMagic(conn); err != nil {
					return
				}
				ft, payload, err := wire.ReadFrame(conn, nil)
				if err != nil || ft != wire.FrameReplHello {
					return
				}
				rs.Serve(conn, key, payload)
			}(conn)
		}
	}()
	return rs, func() { ln.Close() }
}

func openPrimary(t *testing.T, dir string) *store.Log {
	t.Helper()
	lg, err := store.OpenLog(store.LogConfig{Dir: dir, NoSync: true, AnchorEvery: 4, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return lg
}

func putN(t *testing.T, s store.Store, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		rec := store.Record{
			Token:   uint64(1000 + i),
			Session: uint64(i),
			NextSeq: uint64(i * 3),
			Tenant:  "acme",
			JSON:    []byte(fmt.Sprintf(`{"races":%d,"events":%d}`, i%5, i*100)),
		}
		if err := s.Put(rec); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
}

// waitFor polls until cond or the deadline.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func chainOf(lg *store.Log) (uint64, [store.HashSize]byte) { return lg.ChainPos() }

func replicaLog(t *testing.T, rs *ReplicaSet, sourceID string) *store.Log {
	t.Helper()
	lg, err := rs.open(sourceID)
	if err != nil {
		t.Fatalf("replica log %s: %v", sourceID, err)
	}
	return lg
}

func TestReplEndToEndChainIdentical(t *testing.T) {
	primary := openPrimary(t, filepath.Join(t.TempDir(), "primary"))
	defer primary.Close()
	addr, rs, stop := startFollower(t, filepath.Join(t.TempDir(), "replicas"), "rkey")
	defer stop()
	defer rs.Close()

	src := NewSource(SourceConfig{
		Log: primary, Followers: []string{addr}, Key: "rkey",
		SyncTimeout: 5 * time.Second, Logf: t.Logf,
	})
	st := NewReplicatedStore(primary, src)
	defer src.Stop()

	putN(t, st, 0, 25) // crosses anchor cadence and a segment roll

	wantNext, wantHash := chainOf(primary)
	rl := replicaLog(t, rs, primary.ID())
	gotNext, gotHash := chainOf(rl)
	if gotNext != wantNext || gotHash != wantHash {
		t.Fatalf("replica chain (%d, %x) != source chain (%d, %x)", gotNext, gotHash[:4], wantNext, wantHash[:4])
	}
	if err := rl.Verify(); err != nil {
		t.Fatalf("replica chain failed verification: %v", err)
	}
	// Every record fetches byte-identically from the replica.
	for i := 0; i < 25; i++ {
		want, err := primary.Get(uint64(1000 + i))
		if err != nil {
			t.Fatalf("primary Get %d: %v", i, err)
		}
		got, err := rs.Get(uint64(1000 + i))
		if err != nil {
			t.Fatalf("replica Get %d: %v", i, err)
		}
		if !bytes.Equal(got.JSON, want.JSON) || got.Session != want.Session || got.Tenant != want.Tenant {
			t.Fatalf("record %d differs: got %+v want %+v", i, got, want)
		}
	}
}

func TestReplFollowerRestartCatchesUp(t *testing.T) {
	primary := openPrimary(t, filepath.Join(t.TempDir(), "primary"))
	defer primary.Close()
	replicaDir := filepath.Join(t.TempDir(), "replicas")
	addr, rs, stop := startFollower(t, replicaDir, "")

	src := NewSource(SourceConfig{
		Log: primary, Followers: []string{addr},
		SyncTimeout: 2 * time.Second, BackoffBase: 10 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		Logf: t.Logf,
	})
	st := NewReplicatedStore(primary, src)
	defer src.Stop()

	putN(t, st, 0, 10)
	next, _ := chainOf(primary)
	waitFor(t, 5*time.Second, "initial replication", func() bool {
		return src.Stats().Acked[addr] == next
	})

	// Follower dies mid-stream; the primary keeps accepting Puts.
	stop()
	rs.Close()
	start := time.Now()
	putN(t, st, 10, 10)
	if d := time.Since(start); d > 15*time.Second {
		t.Fatalf("Puts with follower down took %v", d)
	}

	// Follower restarts on the same address: the ReplWelcome position
	// triggers anti-entropy catch-up to an identical verified chain.
	rs2, stop2 := restartFollower(t, addr, replicaDir, "")
	defer stop2()
	defer rs2.Close()
	wantNext, wantHash := chainOf(primary)
	waitFor(t, 10*time.Second, "catch-up after restart", func() bool {
		gotNext, gotHash := chainOf(replicaLog(t, rs2, primary.ID()))
		return gotNext == wantNext && gotHash == wantHash
	})
	rl := replicaLog(t, rs2, primary.ID())
	if err := rl.Verify(); err != nil {
		t.Fatalf("replica chain failed verification after catch-up: %v", err)
	}
	st2 := src.Stats()
	if st2.Reconnects == 0 {
		t.Fatalf("expected reconnect attempts, got %+v", st2)
	}
}

func TestReplDegradedFollowerNeverFailsPut(t *testing.T) {
	primary := openPrimary(t, filepath.Join(t.TempDir(), "primary"))
	defer primary.Close()
	// Nothing listens here: the follower is down from the start.
	src := NewSource(SourceConfig{
		Log: primary, Followers: []string{"127.0.0.1:1"},
		SyncTimeout: 50 * time.Millisecond, BackoffBase: 10 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		Logf: t.Logf,
	})
	st := NewReplicatedStore(primary, src)
	defer src.Stop()

	start := time.Now()
	putN(t, st, 0, 5)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Puts with follower down took %v; degraded mode must not gate them", d)
	}
	waitFor(t, 2*time.Second, "degraded demotion", func() bool {
		return src.Stats().Degraded == 1 || src.Stats().Failed == 1
	})
}

func TestReplKeyMismatchRefused(t *testing.T) {
	primary := openPrimary(t, filepath.Join(t.TempDir(), "primary"))
	defer primary.Close()
	addr, rs, stop := startFollower(t, filepath.Join(t.TempDir(), "replicas"), "right")
	defer stop()
	defer rs.Close()

	src := NewSource(SourceConfig{
		Log: primary, Followers: []string{addr}, Key: "wrong",
		SyncTimeout: 50 * time.Millisecond, BackoffBase: 10 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		Logf: t.Logf,
	})
	st := NewReplicatedStore(primary, src)
	defer src.Stop()

	putN(t, st, 0, 3)
	waitFor(t, 5*time.Second, "refused handshake", func() bool {
		return rs.Stats().Refused > 0
	})
	if got := rs.Stats().Records; got != 0 {
		t.Fatalf("replicated %d records across a refused handshake", got)
	}
}

func TestReplSpillBudgetDropsFollower(t *testing.T) {
	primary := openPrimary(t, filepath.Join(t.TempDir(), "primary"))
	defer primary.Close()
	src := NewSource(SourceConfig{
		Log: primary, Followers: []string{"127.0.0.1:1"},
		SyncTimeout: 10 * time.Millisecond, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		SpillRecords: 8, Logf: t.Logf,
	})
	st := NewReplicatedStore(primary, src)
	defer src.Stop()

	putN(t, st, 0, 20) // well past the 8-record spill budget
	waitFor(t, 5*time.Second, "spill-budget drop", func() bool {
		return src.Stats().Failed == 1
	})
}

func TestReplDivergentReplicaDropped(t *testing.T) {
	primary := openPrimary(t, filepath.Join(t.TempDir(), "primary"))
	defer primary.Close()
	putN(t, primary, 0, 5)

	// Pre-seed the follower with a DIFFERENT chain under this source's
	// ID: replication must refuse to graft onto it.
	replicaDir := filepath.Join(t.TempDir(), "replicas")
	forged, err := store.OpenLog(store.LogConfig{Dir: filepath.Join(replicaDir, primary.ID()), NoSync: true})
	if err != nil {
		t.Fatalf("forged replica: %v", err)
	}
	if err := forged.Put(store.Record{Token: 9, JSON: []byte(`{"forged":true}`)}); err != nil {
		t.Fatalf("forged put: %v", err)
	}
	forged.Close()

	addr, rs, stop := startFollower(t, replicaDir, "")
	defer stop()
	defer rs.Close()
	src := NewSource(SourceConfig{
		Log: primary, Followers: []string{addr},
		SyncTimeout: 50 * time.Millisecond, BackoffBase: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
		Logf: t.Logf,
	})
	defer src.Stop()

	waitFor(t, 5*time.Second, "divergent replica dropped", func() bool {
		return src.Stats().Failed == 1
	})
	rl := replicaLog(t, rs, primary.ID())
	if next, _ := chainOf(rl); next != 1 {
		t.Fatalf("divergent replica was written to: next=%d", next)
	}
}

// BenchmarkReplicatedPut measures the Put path with a live loopback
// follower acking synchronously — the E20 replication-cost cell —
// against BenchmarkLogPut as the unreplicated baseline.
func BenchmarkReplicatedPut(b *testing.B) {
	primary, err := store.OpenLog(store.LogConfig{Dir: b.TempDir(), NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()
	rs, err := OpenReplicaSet(b.TempDir(), true, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer rs.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if err := wire.ReadMagic(conn); err != nil {
					return
				}
				ft, payload, err := wire.ReadFrame(conn, nil)
				if err != nil || ft != wire.FrameReplHello {
					return
				}
				rs.Serve(conn, "", payload)
			}(conn)
		}
	}()
	src := NewSource(SourceConfig{Log: primary, Followers: []string{ln.Addr().String()}, SyncTimeout: 10 * time.Second})
	st := NewReplicatedStore(primary, src)
	defer src.Stop()
	json := []byte(`{"races":2,"events":4096,"engine":"2d"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(store.Record{Token: uint64(i + 1), Session: uint64(i), JSON: json}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogPut is the unreplicated baseline for E20.
func BenchmarkLogPut(b *testing.B) {
	lg, err := store.OpenLog(store.LogConfig{Dir: b.TempDir(), NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer lg.Close()
	json := []byte(`{"races":2,"events":4096,"engine":"2d"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lg.Put(store.Record{Token: uint64(i + 1), Session: uint64(i), JSON: json}); err != nil {
			b.Fatal(err)
		}
	}
}
