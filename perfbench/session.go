package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/obs"

	race2d "repro"
)

// sessionRec is what one client session (and the fetch of its verdict)
// leaves behind: timestamps, a verdict check, and a few counters.
type sessionRec struct {
	id     int64
	tc     *traceCase
	class  string
	events int
	direct bool // traced verdicts: sent straight to the ring's backend

	due, start, dialed, sent, finished time.Time
	fetchStart, fetchEnd               time.Time
	genLag                             time.Duration

	token      uint64
	reconnects uint64
	stats      obs.Stats // the verdict's exact operation counts

	err      error // session refused, errored, timed out, or verdict mismatch
	fetchErr error // fetch refused, errored, or not byte-identical

	rep         *race2d.Report // kept for the report-encode replay when asked
	reportBytes int
}

var sessionIDs atomic.Int64

// runSession streams tc through one client session against addr and
// checks the Report is byte-identical to the in-process replay. With
// keepReport set the Report stays in r for a later replay.
func runSession(addr string, tc *traceCase, opts []client.Option, keepReport bool, r *sessionRec) {
	r.id = sessionIDs.Add(1)
	r.tc = tc
	r.class = tc.class
	r.events = len(tc.tr.Events)
	r.start = time.Now()
	sess, err := client.Dial(addr, opts...)
	r.dialed = time.Now()
	if err != nil {
		r.err = fmt.Errorf("dial: %w", err)
		return
	}
	defer sess.Close()
	sess.EventBatch(tc.tr.Events)
	err = sess.Flush()
	r.sent = time.Now()
	if err != nil {
		r.err = fmt.Errorf("send: %w", err)
		return
	}
	rep, err := sess.Finish()
	r.finished = time.Now()
	r.token = sess.Token()
	r.reconnects = sess.Stats().Reconnects
	if err != nil {
		r.err = fmt.Errorf("finish: %w", err)
		return
	}
	sess.Close()
	got, err := json.Marshal(rep)
	if err != nil {
		r.err = fmt.Errorf("verdict: %w", err)
		return
	}
	if !bytes.Equal(got, tc.want) {
		r.err = fmt.Errorf("verdict of session %d (%s) differs from the in-process replay", r.id, tc.class)
		return
	}
	r.stats = rep.Stats
	r.reportBytes = len(got)
	if keepReport {
		r.rep = rep
	}
}

// fetchVerdict fetches a successful session's verdict by token from
// addr and checks it is byte-identical to the session's Finish report
// (which runSession checked against the in-process replay).
func fetchVerdict(addr string, opts []client.Option, r *sessionRec) {
	if r.err != nil {
		return
	}
	r.fetchStart = time.Now()
	f, err := client.Fetch(addr, r.token, opts...)
	r.fetchEnd = time.Now()
	switch {
	case err != nil:
		r.fetchErr = fmt.Errorf("fetch: %w", err)
	case f.Partial || !bytes.Equal(f.JSON, r.tc.want):
		r.fetchErr = fmt.Errorf("fetched verdict of session %d differs from its Finish report", r.id)
	}
}

// tally counts attempted and failed operations: a session, and the
// fetch of its verdict when the session succeeded.
func tally(recs []sessionRec) (attempted, failed int64, firstErr error) {
	for i := range recs {
		r := &recs[i]
		attempted++
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		attempted++
		if r.fetchErr != nil {
			failed++
			if firstErr == nil {
				firstErr = r.fetchErr
			}
		}
	}
	return attempted, failed, firstErr
}

// traceSessions records the client spans of every successful session:
// the session itself (from its due time, which is its start in a closed
// loop) with dial, send and finish nested in it, and the fetch.
func traceSessions(t *tracer, recs []sessionRec) {
	for i := range recs {
		r := &recs[i]
		if r.err != nil || r.direct {
			continue
		}
		from := r.start
		if !r.due.IsZero() {
			from = r.due
		}
		t.clientSpan(r.id, r.token, "session", "", from, r.finished)
		t.clientSpan(r.id, r.token, "client.dial", "session", r.start, r.dialed)
		t.clientSpan(r.id, r.token, "client.send", "session", r.dialed, r.sent)
		t.clientSpan(r.id, r.token, "client.finish", "session", r.sent, r.finished)
		if r.fetchErr == nil {
			t.clientSpan(r.id, r.token, "client.fetch", "", r.fetchStart, r.fetchEnd)
		}
	}
}
