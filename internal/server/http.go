package server

import (
	"crypto/subtle"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/obs"
	"repro/internal/repl"
)

// Handler returns the observability endpoints: /healthz (liveness plus
// a live-session count) and /metrics (Prometheus text exposition of the
// Stats counters), plus the /admin endpoints behind Config.AdminKey.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		w.Header().Set("Content-Type", "application/json")
		if s.Draining() {
			// 503 tells probers (and cluster gateways) to take this
			// backend out of rotation; the body says why.
			status = "draining"
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(map[string]any{
			"status":        status,
			"live_sessions": s.Live(),
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.metrics().WriteTo(w)
	})

	// Admin surface: authenticated tenant-table reads and swaps, and a
	// per-tenant report listing. Disabled (403 on everything) unless the
	// server was started with an AdminKey; the key rides the standard
	// Bearer scheme and is compared constant-time.
	admin := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			const scheme = "Bearer "
			auth := r.Header.Get("Authorization")
			if s.cfg.AdminKey == "" || !strings.HasPrefix(auth, scheme) ||
				subtle.ConstantTimeCompare([]byte(strings.TrimPrefix(auth, scheme)), []byte(s.cfg.AdminKey)) != 1 {
				http.Error(w, "admin: forbidden", http.StatusForbidden)
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("/admin/tenants", admin(s.handleAdminTenants))
	mux.HandleFunc("/admin/reports", admin(s.handleAdminReports))
	return mux
}

// metrics renders the /metrics page.
func (s *Server) metrics() *obs.Exposition {
	st := s.Stats()
	x := new(obs.Exposition)
	x.Counter("raced_sessions_total", "Sessions admitted.", st.Sessions)
	x.Gauge("raced_sessions_live", "Sessions live now, suspended ones included.", uint64(s.Live()))
	draining := uint64(0)
	if s.Draining() {
		draining = 1
	}
	x.Gauge("raced_draining", "1 once shutdown has begun.", draining)
	x.Counter("raced_sessions_rejected_total", "Sessions refused at admission: bad credentials, draining, the session cap or a tenant quota.", st.SessionsRejected)
	x.Counter("raced_evictions_total", "Sessions evicted as idle.", st.Evictions)
	x.Counter("raced_frames_total", "Event frames read.", st.Frames)
	x.Counter("raced_wire_bytes_total", "Event frame payload bytes read.", st.WireBytes)
	x.Counter("raced_events_buffered_total", "Events of in-order blocks delivered to session detectors.", st.EventsBuffered)
	x.Counter("raced_handshake_refusals_total", "Connections refused before a session existed.", st.HandshakeRefusals)
	x.Counter("raced_resumes_total", "Sessions re-attached by resume token.", st.Resumes)
	x.Counter("raced_dups_dropped_total", "Duplicate event batches discarded after a resume.", st.DupsDropped)
	x.Counter("raced_wire_blocks_total", "Compressed event blocks read.", st.WireBlocks)
	x.Counter("raced_wire_bytes_blocks_total", "Compressed event block payload bytes read.", st.WireBytesBlocks)
	x.Counter("raced_wire_bytes_raw_total", "Record-form bytes the compressed blocks stand for.", st.WireBytesRaw)
	x.GaugeFloat("raced_compress_ratio", "Record-form bytes per compressed block byte (1 before any block).", st.CompressRatio())
	x.Counter("raced_auth_failures_total", "Handshakes refused for bad or missing tenant credentials.", s.authFailures.Load())
	x.Counter("raced_quota_refusals_total", "Sessions refused at a tenant quota.", s.quotaRefusals.Load())

	ss := s.store.Stats()
	x.Gauge("raced_store_records", "Reports held in the store.", uint64(ss.Records))
	x.Gauge("raced_store_bytes", "Bytes of the reports held in the store.", uint64(ss.Bytes))
	x.Gauge("raced_store_segments", "Report log segment files (0 in memory).", uint64(ss.Segments))
	x.Counter("raced_store_puts_total", "Reports persisted.", ss.Puts)
	// The server-side counter, not ss.PutFailures: the store counts
	// its own refusals too, and summing would double-count every
	// failed persist the server observed.
	x.Counter("raced_store_put_failures_total", "Finished reports the store refused to persist.", s.storePutErrors.Load())
	x.Counter("raced_store_gets_total", "Store lookups by resume token.", ss.Gets)
	x.Counter("raced_store_hits_total", "Store lookups that found their report.", ss.Hits)
	x.Counter("raced_store_compactions_total", "Passes that dropped expired reports.", ss.Compactions)
	x.Counter("raced_store_segments_pruned_total", "Expired log segments pruned.", ss.SegmentsPruned)
	x.Counter("raced_store_verify_failures_total", "Records found damaged by verification or re-read.", ss.VerifyFailures)

	// Per-tenant gauges. A tenant appears in all three once it has a
	// live session or stored bytes; the anonymous tenant of an open
	// server is labeled "".
	live := make(map[string]uint64)
	s.mu.Lock()
	for t, n := range s.tenantSessions {
		live[t] = uint64(n)
	}
	s.mu.Unlock()
	for t := range ss.TenantBytes {
		if _, ok := live[t]; !ok {
			live[t] = 0
		}
	}
	storeBytes := make(map[string]uint64, len(live))
	records := make(map[string]uint64, len(live))
	for t := range live {
		storeBytes[t], records[t] = uint64(ss.TenantBytes[t]), ss.TenantRecords[t]
	}
	x.GaugeVec("raced_tenant_sessions_live", "Live sessions per tenant.", "tenant", live)
	x.GaugeVec("raced_tenant_store_bytes", "Stored report bytes per tenant.", "tenant", storeBytes)
	x.GaugeVec("raced_tenant_store_records", "Stored reports per tenant.", "tenant", records)

	// Live-reconfiguration counters and per-tenant auth refusals
	// (cardinality bounded: only names in the live table are counted).
	x.Counter("raced_tenant_reloads_total", "Tenant table replacements (SIGHUP or PUT /admin/tenants).", s.tenantReloads.Load())
	x.Counter("raced_tenant_revoked_sessions_total", "Sessions evicted because their tenant left the table.", s.tenantRevocations.Load())
	s.tmu.RLock()
	x.CounterVec("raced_tenant_auth_refusals_total", "Refused credentials per tenant in the table.", "tenant", s.tenantAuthRefusals)
	s.tmu.RUnlock()

	// Replication source side: present when the store replicates
	// outward (detected by the Source upcast, so the server needs no
	// store-type knowledge).
	if src, ok := s.store.(interface{ Source() *repl.Source }); ok {
		rst := src.Source().Stats()
		x.Gauge("raced_repl_followers", "Followers the report log streams to.", uint64(rst.Followers))
		x.Gauge("raced_repl_followers_connected", "Followers connected now.", uint64(rst.Connected))
		x.Gauge("raced_repl_followers_degraded", "Followers lagging and retried with backoff.", uint64(rst.Degraded))
		x.Gauge("raced_repl_followers_failed", "Followers dropped past the spill budget.", uint64(rst.Failed))
		x.Counter("raced_repl_records_sent_total", "Records streamed to followers.", rst.RecordsSent)
		x.Counter("raced_repl_acks_total", "Follower acks received.", rst.AcksReceived)
		x.Counter("raced_repl_reconnects_total", "Follower reconnect attempts.", rst.Reconnects)
		x.Counter("raced_repl_degraded_events_total", "Times a follower was demoted to degraded.", rst.DegradedEvents)
		x.GaugeVec("raced_repl_follower_acked", "Next chain index each follower has not applied.", "follower", rst.Acked)
	}
	// Follower side: the replica logs this backend hosts for others.
	if s.cfg.Replicas != nil {
		fst := s.cfg.Replicas.Stats()
		x.Gauge("raced_replica_sources", "Sources whose replica logs this server hosts.", uint64(fst.Sources))
		x.Gauge("raced_replica_connections", "Inbound replication streams open now.", uint64(fst.Connections))
		x.Counter("raced_replica_streams_total", "Inbound replication streams served.", fst.Served)
		x.Counter("raced_replica_records_total", "Replicated records applied.", fst.Records)
		x.Counter("raced_replica_refusals_total", "Inbound replication handshakes refused.", fst.Refused)
		x.GaugeVec("raced_replica_position", "Next chain index of each hosted replica log.", "source", fst.Positions)
	}
	return x
}

// handleAdminTenants serves the live tenant table. GET returns the
// table's names and quotas — keys are write-only and never echoed. PUT
// replaces the whole table from a body in the -tenant-keys-file format
// (see cliflags.ParseTenantKeysFile); an empty body turns auth off.
// Rotations and revocations take effect on the next handshake, exactly
// as SetTenants documents.
func (s *Server) handleAdminTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		type tenantInfo struct {
			MaxSessions   int   `json:"max_sessions"`
			MaxStoreBytes int64 `json:"max_store_bytes"`
			LiveSessions  int   `json:"live_sessions"`
		}
		table := s.Tenants()
		s.mu.Lock()
		live := make(map[string]int, len(s.tenantSessions))
		for t, n := range s.tenantSessions {
			live[t] = n
		}
		s.mu.Unlock()
		out := make(map[string]tenantInfo, len(table))
		for name, t := range table {
			out[name] = tenantInfo{
				MaxSessions:   t.MaxSessions,
				MaxStoreBytes: t.MaxStoreBytes,
				LiveSessions:  live[name],
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"enabled": len(table) > 0, "tenants": out})
	case http.MethodPut:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, "admin: reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		specs, err := cliflags.ParseTenantKeysFile(body)
		if err != nil {
			http.Error(w, "admin: "+err.Error(), http.StatusBadRequest)
			return
		}
		table := TenantTable(specs)
		s.SetTenants(table)
		s.logf("admin: tenant table replaced (%d tenants)", len(table))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"enabled": len(table) > 0, "count": len(table)})
	default:
		w.Header().Set("Allow", "GET, PUT")
		http.Error(w, "admin: method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleAdminReports lists a tenant's persisted reports
// (GET /admin/reports?tenant=X), or exports one report's stored JSON
// verbatim (&token=<hex> — the bytes a resuming client would receive).
func (s *Server) handleAdminReports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "admin: method not allowed", http.StatusMethodNotAllowed)
		return
	}
	tenant := r.URL.Query().Get("tenant")
	if tok := r.URL.Query().Get("token"); tok != "" {
		token, err := strconv.ParseUint(tok, 16, 64)
		if err != nil {
			http.Error(w, "admin: bad token (want hex)", http.StatusBadRequest)
			return
		}
		rec, err := s.store.Get(token)
		if err != nil || rec.Tenant != tenant {
			// Absent, expired, tampered-at, or another tenant's: one
			// answer for all of them, like the wire surface.
			http.Error(w, "admin: report not found", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(rec.JSON)
		return
	}
	recs, err := s.store.List()
	if err != nil {
		http.Error(w, "admin: listing store: "+err.Error(), http.StatusInternalServerError)
		return
	}
	type reportInfo struct {
		Token   string `json:"token"`
		Session uint64 `json:"session"`
		Flags   uint64 `json:"flags"`
	}
	out := []reportInfo{}
	for _, rec := range recs {
		if rec.Tenant != tenant {
			continue
		}
		out = append(out, reportInfo{
			Token:   strconv.FormatUint(rec.Token, 16),
			Session: rec.Session,
			Flags:   rec.Flags,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"tenant": tenant, "reports": out})
}
