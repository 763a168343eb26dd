package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/fj"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// metricsBody fetches /metrics from a handler-backed test server.
func metricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// TestTenantLiveRotation swaps a tenant's key on a running server (the
// SetTenants path both SIGHUP and PUT /admin/tenants call): the old
// key must be refused on the very next handshake, the new one
// accepted, and the reload plus the per-tenant refusal must show on
// /metrics — all without a restart.
func TestTenantLiveRotation(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Tenants: map[string]server.Tenant{"acme": {Key: "old"}},
	})
	sess, err := client.Dial(addr, client.WithAuthToken("acme:old"))
	if err != nil {
		t.Fatalf("pre-rotation dial: %v", err)
	}
	sess.Close()

	srv.SetTenants(map[string]server.Tenant{"acme": {Key: "new"}})

	if _, err := client.Dial(addr, client.WithAuthToken("acme:old")); err == nil ||
		!strings.Contains(err.Error(), "invalid tenant credentials") {
		t.Fatalf("rotated-away key admitted: err = %v, want auth refusal", err)
	}
	sess2, err := client.Dial(addr, client.WithAuthToken("acme:new"))
	if err != nil {
		t.Fatalf("rotated key refused: %v", err)
	}
	sess2.Close()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := metricsBody(t, ts)
	for _, want := range []string{
		"raced_tenant_reloads_total 1",
		`raced_tenant_auth_refusals_total{tenant="acme"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

// TestTenantRevocationEvictsInFlight removes a tenant from the live
// table while one of its sessions is streaming: after RevokeGrace the
// janitor must evict that session (counted in
// raced_tenant_revoked_sessions_total) while the surviving tenant's
// session finishes untouched.
func TestTenantRevocationEvictsInFlight(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Tenants: map[string]server.Tenant{
			"doomed":   {Key: "dk"},
			"survivor": {Key: "sk"},
		},
		RevokeGrace: 50 * time.Millisecond,
		// The janitor ticks at ResumeWindow/4; keep the test fast.
		ResumeWindow: 200 * time.Millisecond,
	})
	doomed, err := client.Dial(addr, client.WithAuthToken("doomed:dk"))
	if err != nil {
		t.Fatal(err)
	}
	defer doomed.Close()
	doomed.Event(fj.Event{Kind: fj.EvBegin, T: 0})
	keep, err := client.Dial(addr, client.WithAuthToken("survivor:sk"))
	if err != nil {
		t.Fatal(err)
	}
	defer keep.Close()
	keep.Event(fj.Event{Kind: fj.EvBegin, T: 0})

	srv.SetTenants(map[string]server.Tenant{"survivor": {Key: "sk"}})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if strings.Contains(metricsBody(t, ts), "raced_tenant_revoked_sessions_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revoked tenant's session never evicted:\n%s", metricsBody(t, ts))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The surviving tenant's in-flight session is untouched by the
	// other tenant's revocation.
	keep.Event(fj.Event{Kind: fj.EvHalt, T: 0})
	if _, err := keep.Finish(); err != nil {
		t.Fatalf("survivor session broken by revocation: %v", err)
	}
}

// TestTenantAdminEndpoints drives the authenticated admin surface end
// to end: bearer-key gating, key-withholding GET, a PUT that rotates
// the table with immediate wire effect, grammar errors leaving the
// table untouched, and the empty-body "auth off" escape hatch.
func TestTenantAdminEndpoints(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		AdminKey: "adm-key",
		Tenants:  map[string]server.Tenant{"acme": {Key: "supersecret", MaxSessions: 3}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do := func(method, path, auth, body string) (*http.Response, string) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.String()
	}

	for _, auth := range []string{"", "Bearer wrong", "Basic adm-key"} {
		if resp, _ := do("GET", "/admin/tenants", auth, ""); resp.StatusCode != http.StatusForbidden {
			t.Errorf("auth %q: status %d, want 403", auth, resp.StatusCode)
		}
	}

	resp, body := do("GET", "/admin/tenants", "Bearer adm-key", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /admin/tenants: %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"acme"`) || !strings.Contains(body, `"max_sessions":3`) {
		t.Errorf("GET body missing tenant info: %s", body)
	}
	if strings.Contains(body, "supersecret") {
		t.Errorf("GET /admin/tenants leaks key material: %s", body)
	}

	// Rotate acme's key and add beta, tenant-keys-file grammar with a
	// comment; the swap must bite the next wire handshake.
	resp, body = do("PUT", "/admin/tenants", "Bearer adm-key",
		"# rotated by test\nacme=rotated:2\nbeta=bkey\n")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"count":2`) {
		t.Fatalf("PUT /admin/tenants: %d: %s", resp.StatusCode, body)
	}
	if _, err := client.Dial(addr, client.WithAuthToken("acme:supersecret")); err == nil ||
		!strings.Contains(err.Error(), "invalid tenant credentials") {
		t.Fatalf("pre-rotation key admitted after PUT: err = %v", err)
	}
	for _, cred := range []string{"acme:rotated", "beta:bkey"} {
		sess, err := client.Dial(addr, client.WithAuthToken(cred))
		if err != nil {
			t.Fatalf("%s refused after PUT: %v", cred, err)
		}
		sess.Close()
	}

	// A grammar error is a 400 and leaves the live table untouched.
	if resp, _ := do("PUT", "/admin/tenants", "Bearer adm-key", "acme\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad grammar PUT: %d, want 400", resp.StatusCode)
	}
	if sess, err := client.Dial(addr, client.WithAuthToken("acme:rotated")); err != nil {
		t.Fatalf("table clobbered by rejected PUT: %v", err)
	} else {
		sess.Close()
	}

	if resp, _ := do("DELETE", "/admin/tenants", "Bearer adm-key", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: %d, want 405", resp.StatusCode)
	}

	// Empty body = empty table = auth off: an explicit operator
	// statement, admitting credential-less sessions.
	if resp, _ := do("PUT", "/admin/tenants", "Bearer adm-key", "# none\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-table PUT: %d", resp.StatusCode)
	}
	sess, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("auth-off dial refused: %v", err)
	}
	sess.Close()
}

// TestTenantAdminReportExport lists and exports persisted reports
// through /admin/reports: the export bytes must be identical to what
// a wire fetch serves, and a cross-tenant token probe answers 404.
func TestTenantAdminReportExport(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		AdminKey: "adm",
		Store:    openLog(t, t.TempDir()),
		Tenants: map[string]server.Tenant{
			"acme": {Key: "k"},
			"beta": {Key: "b"},
		},
	})
	_, token, _ := runWorkload(t, addr, 5, client.WithAuthToken("acme:k"))
	fetched, err := client.Fetch(addr, token, client.WithAuthToken("acme:k"))
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		req.Header.Set("Authorization", "Bearer adm")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, body
	}

	resp, body := get("/admin/reports?tenant=acme")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), fmt.Sprintf("%x", token)) {
		t.Fatalf("report list: %d: %s", resp.StatusCode, body)
	}
	resp, body = get(fmt.Sprintf("/admin/reports?tenant=acme&token=%x", token))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report export: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, fetched.JSON) {
		t.Errorf("admin export differs from wire fetch\nadmin: %s\nwire:  %s", body, fetched.JSON)
	}
	// Another tenant's token reads as absent, like on the wire.
	if resp, _ := get(fmt.Sprintf("/admin/reports?tenant=beta&token=%x", token)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant export: %d, want 404", resp.StatusCode)
	}
}

// TestStoreReplicaFallbackServing proves the durability hand-off: a
// server hosting replicas answers a fetch for a token its own store
// never saw by consulting the replica logs (the racedctl fan-out
// depends on exactly this), and the replication handshake itself is
// key-gated.
func TestStoreReplicaFallbackServing(t *testing.T) {
	dir := t.TempDir()
	// Seed a replica the way a prior replication session would have
	// left it on disk.
	rec := store.Record{Token: 0xbeef, Session: 9, Tenant: "",
		JSON: []byte(`{"engine":"2d","tasks":1,"locations":0,"race_count":0,"races":[]}`)}
	lg, err := store.OpenLog(store.LogConfig{Dir: filepath.Join(dir, "feedc0de"), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Put(rec); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	rs, err := repl.OpenReplicaSet(dir, true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	_, addr := startServer(t, server.Config{Replicas: rs, ReplKey: "rk"})

	f, err := client.Fetch(addr, rec.Token)
	if err != nil {
		t.Fatalf("fetch of replica-only token: %v", err)
	}
	if !bytes.Equal(f.JSON, rec.JSON) {
		t.Errorf("replica-served report differs: %s != %s", f.JSON, rec.JSON)
	}

	// Replication handshake with the right key: welcomed at the
	// replica's announced position (1 record applied → next index 1).
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteMagic(conn); err != nil {
		t.Fatal(err)
	}
	hello := wire.EncodeReplHello(wire.ReplHello{SourceID: "feedc0de", Key: "rk"})
	if err := wire.WriteFrame(conn, wire.FrameReplHello, hello); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ft != wire.FrameReplWelcome {
		t.Fatalf("replication handshake answered %v: %s", ft, payload)
	}
	welcome, err := wire.DecodeReplWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	if welcome.Next != 1 {
		t.Errorf("replica position = %d, want 1", welcome.Next)
	}

	// Wrong key: refused, no welcome.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.SetDeadline(time.Now().Add(5 * time.Second))
	wire.WriteMagic(conn2)
	wire.WriteFrame(conn2, wire.FrameReplHello, wire.EncodeReplHello(wire.ReplHello{SourceID: "feedc0de", Key: "bad"}))
	ft, payload, err = wire.ReadFrame(conn2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ft != wire.FrameError || !strings.Contains(string(payload), "replication") {
		t.Fatalf("bad-key handshake answered %v: %s", ft, payload)
	}
}
