// Package leakcheck fails a test whose goroutines outlive it: servers,
// gateways, replication streams and clients must all stop when closed.
package leakcheck

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// checked holds the top-level tests whose baseline Check has taken.
var checked sync.Map

// Check takes a goroutine baseline the first time a test calls it. When
// that test ends (after its deferred calls and after every cleanup
// registered later, such as a server's Close) no more goroutines may be
// live than at the baseline; Check polls for a few seconds, then fails
// the test with every goroutine's stack.
//
// Calls while a baseline is pending, from the same test or any of its
// subtests, do nothing, so each helper that starts a server can call
// it. A test whose subtests run in parallel calls it before starting
// them, so one baseline and one check span them all. Goroutines are
// counted process-wide, so the tests using Check must not run in
// parallel with each other.
func Check(t testing.TB) {
	top, _, _ := strings.Cut(t.Name(), "/")
	if _, seen := checked.LoadOrStore(top, true); seen {
		return
	}
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		defer checked.Delete(top)
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutine leak: %d live after the test, %d before it started\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
