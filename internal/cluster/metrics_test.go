package cluster_test

import (
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/leakcheck"
)

// TestGatewayMetricsBackendOrder: racedctl's /metrics lists its
// per-backend lines in address order, so repeated scrapes of an
// unchanged gateway are byte-identical.
func TestGatewayMetricsBackendOrder(t *testing.T) {
	leakcheck.Check(t)
	// Nothing listens on these ports. Every member stays Up: a probe
	// that cannot connect changes no state before ProbeFails failures,
	// and the long interval leaves only the first round.
	addrs := []string{"127.0.0.1:7", "127.0.0.1:19", "127.0.0.1:2", "127.0.0.1:110", "127.0.0.1:33"}
	bs := make([]cluster.Backend, len(addrs))
	for i, a := range addrs {
		bs[i] = cluster.Backend{Addr: a}
	}
	gw, err := cluster.NewGateway(cluster.Config{
		Backends:      bs,
		ProbeInterval: time.Hour,
		ProbeTimeout:  time.Second,
		ProbeFails:    1 << 20,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })

	sorted := append([]string(nil), addrs...)
	sort.Strings(sorted)
	h := gw.Handler()
	var first string
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		body := rec.Body.String()
		for _, name := range []string{"racedctl_backend_up", "racedctl_backend_sessions_routed_total"} {
			var got []string
			for _, line := range strings.Split(body, "\n") {
				if rest, ok := strings.CutPrefix(line, name+`{backend="`); ok {
					addr, _, _ := strings.Cut(rest, `"`)
					got = append(got, addr)
				}
			}
			if strings.Join(got, " ") != strings.Join(sorted, " ") {
				t.Fatalf("scrape %d: %s backends %v, want %v", i, name, got, sorted)
			}
		}
		if i == 0 {
			first = body
		} else if body != first {
			t.Fatalf("scrape %d differs from the first:\n%s\nvs\n%s", i, body, first)
		}
	}
}
