package cluster_test

import (
	"net"
	"testing"
	"time"

	"repro/client"
	"repro/internal/faults"
	"repro/internal/leakcheck"
	"repro/internal/server"
)

// TestClusterChaosParity is the cluster fault-tolerance acceptance
// bar: for every fault class, seeded workloads streamed through a
// fault-injected gateway transport — while the session's home backend
// is killed (odd seeds) or drained (even seeds) mid-stream — must
// still produce verdicts byte-identical to the undisturbed local run.
// This composes the two recovery paths: the client's resume machinery
// rides out the injected transport faults, and the gateway's
// re-routing plus the RetainAll replay rides out the loss of the
// backend that held the session's state.
func TestClusterChaosParity(t *testing.T) {
	// One goroutine baseline and check for all the parallel subtests.
	leakcheck.Check(t)
	classes := []faults.Class{faults.Delay, faults.Corrupt, faults.Partial, faults.Drop, faults.Reset, faults.All}
	for _, class := range classes {
		class := class
		t.Run(class.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 4; seed++ {
				kill := seed%2 == 1
				c := testWorkload(seed, 600)
				local := localVerdict(t, c)

				backends := []*backend{
					startBackend(t, server.Config{ResumeWindow: 10 * time.Second}),
					startBackend(t, server.Config{ResumeWindow: 10 * time.Second}),
				}
				_, addr := startGateway(t, backends, func(ln net.Listener) net.Listener {
					return faults.New(faults.Config{
						Seed:      seed,
						Classes:   class,
						Every:     2,
						MaxFaults: 8,
						MaxDelay:  500 * time.Microsecond,
					}).Listener(ln)
				})

				// migrationOpts plus the chaos-specific tuning: a short
				// dial timeout turns a corrupted-handshake stall into a
				// quick retry, and a write timeout unsticks writers blocked
				// on a half-dead transport. Later options overwrite earlier
				// ones, so the append is the override.
				opts := append(migrationOpts(),
					client.WithDialTimeout(250*time.Millisecond),
					client.WithWriteTimeout(2*time.Second),
					client.WithHeartbeat(50*time.Millisecond, 2),
				)
				sess, err := client.Dial(addr, opts...)
				if err != nil {
					t.Fatalf("seed %d: dial through %v faults: %v", seed, class, err)
				}

				events := workloadEvents(t, c)
				half := len(events) / 2
				sess.EventBatch(events[:half])
				if err := sess.Flush(); err != nil {
					sess.Close()
					t.Fatalf("seed %d: flush under %v faults: %v", seed, class, err)
				}
				home := findHome(t, backends)
				var drained <-chan struct{}
				if kill {
					backends[home].hsrv.Close()
					backends[home].srv.Close()
				} else {
					drained = drainHome(t, backends[home])
				}

				sess.EventBatch(events[half:])
				rep, err := sess.Finish()
				sess.Close()
				if err != nil {
					t.Fatalf("seed %d: Finish under %v faults + backend %s: %v",
						seed, class, map[bool]string{true: "kill", false: "drain"}[kill], err)
				}
				if remote := renderJSON(t, rep, localTaskCount(t, c)); remote != local {
					t.Errorf("seed %d: %v faults + backend loss changed the verdict\nlocal:\n%s\nremote:\n%s",
						seed, class, local, remote)
				}
				if got := backends[1-home].srv.Stats().Sessions; got == 0 {
					t.Errorf("seed %d: surviving backend never saw the migrated session", seed)
				}
				if drained != nil {
					<-drained
				}
			}
		})
	}
}
