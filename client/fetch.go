package client

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/wire"

	race2d "repro"
)

// Fetched is a report retrieved by resume token.
type Fetched struct {
	// Session is the server-side id of the session that produced the
	// report.
	Session uint64
	// Partial reports whether the verdict covers only a drained prefix
	// of the stream (wire.FlagPartial).
	Partial bool
	// JSON is the report's exact marshaled bytes as the server persisted
	// them — byte-identical to what the original session was acked.
	JSON []byte
	// Report is JSON unmarshaled, for callers that want the verdict
	// rather than the bytes.
	Report *race2d.Report
}

// Fetch retrieves the persisted Report stored under a resume token — a
// one-shot "resume of a finished session": it dials, presents the token
// (and WithAuthToken credential, if any) in the handshake, and returns
// the Report the server persisted before acking that session's Finish.
// Against a raced with -store-dir this works across server restarts;
// against the default in-memory store it works for the resume window.
//
// Transient failures — a dead endpoint, a truncated read, a draining
// server — are retried up to WithMaxAttempts times under the same
// full-jitter exponential backoff the streaming session uses
// (WithBackoff), rotating through WithEndpoints fallbacks between
// attempts. Terminal refusals are not retried: an auth or quota
// refusal (wire.ErrAuth, wire.ErrQuota), a version refusal, and a
// tampered store's typed diagnostics all surface immediately with the
// server's text. An unknown token (wire.ErrUnknownResume) is special:
// with fallback endpoints configured the others are asked first — a
// replica of a dead home backend can still answer — and the refusal is
// terminal only once every endpoint has disclaimed the token.
func Fetch(addr string, token uint64, opts ...Option) (*Fetched, error) {
	if token == 0 {
		return nil, fmt.Errorf("client: fetch: zero resume token")
	}
	norm, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	endpoints := append([]string{addr}, norm.Endpoints...)
	var lastErr error
	for attempt := 1; attempt <= norm.MaxAttempts; attempt++ {
		ep := endpoints[(attempt-1)%len(endpoints)]
		f, err := fetchOnce(ep, token, norm)
		if err == nil {
			return f, nil
		}
		lastErr = err
		if IsUnknownToken(err) {
			// This endpoint does not hold the report, but a fallback
			// might (a follower replicating the dead home backend).
			// Rotate through the rest without backing off — the next
			// attempt asks a different server — and give up only once
			// every endpoint has answered.
			if attempt >= len(endpoints) {
				return nil, err
			}
			continue
		}
		if terminalRefusal(err.Error()) {
			return nil, err
		}
		if attempt < norm.MaxAttempts {
			time.Sleep(backoff(norm, attempt))
		}
	}
	return nil, lastErr
}

// fetchOnce runs one dial + fetch handshake against one endpoint.
func fetchOnce(addr string, token uint64, norm options) (*Fetched, error) {
	conn, err := net.DialTimeout("tcp", addr, norm.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: fetch: %w", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(norm.FinishTimeout))

	hello := wire.Hello{Token: token, Auth: norm.AuthToken}
	if norm.AuthToken != "" {
		hello.Caps = wire.CapTenant
	}
	bw := bufio.NewWriter(conn)
	if err := wire.WriteMagic(bw); err == nil {
		err = wire.WriteFrame(bw, wire.FrameHello, wire.EncodeHello(hello))
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return nil, fmt.Errorf("client: fetch: %w", err)
	}

	ft, payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return nil, fmt.Errorf("client: fetch: %w", err)
	}
	if ft == wire.FrameError {
		return nil, fmt.Errorf("client: fetch: %s", payload)
	}
	if ft != wire.FrameWelcome {
		return nil, fmt.Errorf("client: fetch: unexpected %v frame", ft)
	}
	welcome, err := wire.DecodeWelcomeV3(payload)
	if err != nil {
		return nil, fmt.Errorf("client: fetch: %w", err)
	}

	ft, payload, err = wire.ReadFrame(conn, nil)
	if err != nil {
		return nil, fmt.Errorf("client: fetch: %w", err)
	}
	switch ft {
	case wire.FrameReport:
		flags, body, err := wire.DecodeReport(payload)
		if err != nil {
			return nil, fmt.Errorf("client: fetch: %w", err)
		}
		rep := &race2d.Report{}
		if err := rep.UnmarshalJSON(body); err != nil {
			return nil, fmt.Errorf("client: fetch: report: %w", err)
		}
		return &Fetched{
			Session: welcome.Session,
			Partial: flags&wire.FlagPartial != 0,
			JSON:    append([]byte(nil), body...),
			Report:  rep,
		}, nil
	case wire.FrameError:
		return nil, fmt.Errorf("client: fetch: %s", payload)
	default:
		return nil, fmt.Errorf("client: fetch: unexpected %v frame", ft)
	}
}

// IsUnknownToken reports whether a Fetch (or Dial resume) error is the
// server's unknown-resume-token refusal: the report never existed,
// expired past retention, or the server lost it (memory store +
// restart).
func IsUnknownToken(err error) bool {
	return err != nil && strings.Contains(err.Error(), wire.ErrUnknownResume.Error())
}
