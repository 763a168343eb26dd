package cluster_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/leakcheck"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
)

// checkExposition parses a /metrics page and returns its family names
// in order. Every family has exactly one # HELP and one # TYPE line
// ahead of its samples, and its samples are contiguous.
func checkExposition(t *testing.T, body string) []string {
	t.Helper()
	var families []string
	comments := make(map[string]int) // "HELP name" / "TYPE name" -> lines
	ended := make(map[string]bool)   // families whose samples are over
	cur := ""
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			kind, rest, _ := strings.Cut(rest, " ")
			name, _, _ := strings.Cut(rest, " ")
			if comments[kind+" "+name]++; kind == "TYPE" {
				families = append(families, name)
			}
			continue
		}
		i := strings.IndexAny(line, "{ ")
		if i <= 0 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name := line[:i]
		if comments["TYPE "+name] == 0 {
			t.Errorf("sample %q has no # TYPE line ahead of it", line)
		}
		if name != cur {
			if ended[name] {
				t.Errorf("family %s: samples are not contiguous", name)
			}
			ended[cur], cur = true, name
		}
	}
	for _, name := range families {
		if comments["HELP "+name] != 1 || comments["TYPE "+name] != 1 {
			t.Errorf("family %s: %d # HELP and %d # TYPE lines, want 1 each",
				name, comments["HELP "+name], comments["TYPE "+name])
		}
	}
	return families
}

// scrape serves one GET /metrics from h.
func scrape(h http.Handler) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestMetricsNamesMatchREADME scrapes a raced that plays every role
// /metrics reports on, and a racedctl over two backends. Every exposed
// family must be named in README, and every raced_*/racedctl_* name
// README gives must be exposed.
func TestMetricsNamesMatchREADME(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()

	// The follower the primary replicates to.
	followerSet, err := repl.OpenReplicaSet(filepath.Join(dir, "follower"), true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	follower := startBackend(t, server.Config{Replicas: followerSet, ReplKey: "rk"})

	// The primary: a replicated log, a replica set hosting one seeded
	// source, and two tenants.
	seed, err := store.OpenLog(store.LogConfig{Dir: filepath.Join(dir, "replicas", "feedc0de"), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put(store.Record{Token: 0xbeef, Session: 9, JSON: []byte(`{"engine":"2d","tasks":1,"locations":0,"race_count":0,"races":[]}`)}); err != nil {
		t.Fatal(err)
	}
	seed.Close()
	replicas, err := repl.OpenReplicaSet(filepath.Join(dir, "replicas"), true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := store.OpenLog(store.LogConfig{Dir: filepath.Join(dir, "log"), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	src := repl.NewSource(repl.SourceConfig{Log: lg, Followers: []string{follower.addr}, Key: "rk", Logf: t.Logf})
	primary := startBackend(t, server.Config{
		Store:    repl.NewReplicatedStore(lg, src),
		Replicas: replicas,
		ReplKey:  "rk",
		Tenants: map[string]server.Tenant{
			"acme": {Key: "ka"},
			"beta": {Key: "kb"},
		},
	})

	// beta: one refused credential and one persisted verdict; acme: a
	// session left open across the scrape.
	if _, err := client.Dial(primary.addr, client.WithAuthToken("beta:wrong")); err == nil {
		t.Fatal("wrong key admitted")
	}
	sess, err := client.Dial(primary.addr, client.WithAuthToken("beta:kb"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testWorkload(5, 200).Run(sess); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	live, err := client.Dial(primary.addr, client.WithAuthToken("acme:ka"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })

	gw, _ := startGateway(t, []*backend{primary, follower}, nil)

	exposed := make(map[string]bool)
	for _, body := range []string{scrape(primary.srv.Handler()), scrape(gw.Handler())} {
		for _, name := range checkExposition(t, body) {
			exposed[name] = true
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	named := make(map[string]bool)
	for _, name := range regexp.MustCompile(`\b(?:raced|racedctl)_\w+`).FindAllString(string(readme), -1) {
		named[name] = true
	}
	var missing, stale []string
	for name := range exposed {
		if !named[name] {
			missing = append(missing, name)
		}
	}
	for name := range named {
		if !exposed[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("exposed but not in README: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("named in README but not exposed: %v", stale)
	}
}

// TestGatewayMetricsBackendOrder: racedctl's /metrics lists its
// per-backend lines in address order, each family's together under its
// # HELP and # TYPE, so repeated scrapes of an unchanged gateway are
// byte-identical.
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
		checkExposition(t, body)
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
