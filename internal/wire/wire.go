// Package wire is the raced streaming protocol: a versioned,
// length-prefixed binary framing of fj event batches, spoken between
// the client package and internal/server over any byte stream
// (normally TCP).
//
// The premise follows the compressed-trace line of work (Kini, Mathur,
// Viswanathan, "Data Race Detection on Compressed Traces"): events ship
// as dense varint-encoded batches — the same record form fj.Encode
// writes to disk — rather than one RPC per event, so the transport cost
// per memory operation is a few bytes and no per-event syscalls.
//
// # Stream layout
//
// A session opens with the 4-byte stream magic ("RDS" + version), sent
// by the client, followed by frames in both directions:
//
//	client → server: Hello, (EventsBlock | Heartbeat)*, Finish
//	server → client: Welcome, (Ack | Heartbeat)*, Report | Error
//
// A server draining on SIGTERM may send a Report frame with the Partial
// flag before the client finishes; the report then covers the prefix of
// the stream the detector consumed — a coherent verdict, not a torn
// one.
//
// # Protocol version and capabilities
//
// The magic's fourth byte carries the protocol version, and there is
// one: 3. Any other version byte is refused with an Error frame whose
// text carries HandshakeRefusedPrefix and the ErrVersion text. The
// stream is fault tolerant, justified by the paper's Theorem 4: any
// prefix of the event stream is a coherent detector state, so a session
// resumed from the last acknowledged event batch replays to an
// identical verdict. Concretely:
//
//   - Hello carries a resume token (zero for a fresh session) and
//     Welcome answers with the token to present on reconnect plus the
//     next sequence number the server expects;
//   - every EventsBlock frame carries a monotonic sequence number, and
//     the server answers with Ack frames naming the highest contiguously
//     ingested sequence — the client may discard acknowledged batches
//     from its replay buffer;
//   - duplicate sequences (a client resending past an ack it never saw)
//     are discarded, so replay after reconnect is idempotent;
//   - Heartbeat frames flow both ways to bound dead-peer detection.
//
// Event batches always ship as EventsBlock frames, each a
// self-contained compressed block (delta/varint encoding of task IDs
// and addresses plus a copy-run layer exploiting the repetitive
// fork-join structure, a flate pass over that delta stream for blocks
// the deltas alone do not shrink 8x, and a raw record-form fallback —
// see block.go). Blocks are acked, deduplicated and resent by sequence
// number, so resume semantics hold at block boundaries; because every
// block resets its own delta state, a block resent to a freshly
// restarted server decodes to the same events, and a client resends
// the bytes it first sent.
//
// Hello and Welcome also carry a capability bitmask; the session's
// capability set is the intersection of what the client offered and
// what the server granted, so either side can veto a feature without
// breaking the handshake.
//
//	magic      hello payload                   welcome payload
//	"RDS\x03"  engine, batch, resume token,    session, token, next seq,
//	           capability bits, route key,     granted capability bits
//	           auth credential                 (intersection)
//
//	capability   bit     meaning
//	(retired)    1<<0    unused; once offered block compression, which
//	                     is now unconditional
//	CapTenant    1<<1    hello carries a tenant auth token ("tenant:key")
//
// # Tenant auth (CapTenant)
//
// A Hello may carry an auth token — the "tenant:key" credential the
// server checks against its -tenant-keys table — as a trailing optional
// field (after RouteKey), offered under the CapTenant bit. A server
// running with tenant keys refuses a missing or wrong credential with
// an Error frame whose text carries HandshakeRefusedPrefix plus the
// ErrAuth text; a tenant over its session or storage quota is refused
// with the ErrQuota text. Both refusals are terminal for clients —
// resending the same bad credential cannot succeed — even though they
// ride the handshake-refusal prefix (see HandshakeRefusedPrefix).
// Servers running without tenant keys ignore the field, so an
// authenticated client speaks to an open server unchanged.
//
// # Frame layout
//
//	1 byte  frame type
//	4 bytes payload length (little endian)
//	N bytes payload
//	4 bytes CRC32 (IEEE) over type, length and payload
//
// Every frame is checksummed so a corrupted or desynchronized stream
// fails loudly instead of feeding garbage to a detector. Short reads
// surface as errors wrapping ErrTruncated (sentinel-checkable), bad
// checksums as ErrChecksum, oversized declarations as ErrFrameTooLarge.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/fj"
)

// Protocol version: V3 is the only version this package speaks —
// sequenced, acknowledged, resumable frames with negotiated
// capabilities.
const (
	V3 = 3

	// Version is the protocol version carried in Magic.
	Version = V3
)

// Capability bits. A session's capability set is the intersection
// of the bits the client offered in Hello and the bits the server
// granted back in Welcome. Bit 0 is retired and stays unused, so the
// handshake layouts and their varint sizes are unchanged.
const (
	// CapTenant marks a Hello carrying a tenant auth credential in its
	// trailing Auth field. A server grants the bit back when it checked
	// the credential (it runs with tenant keys); an open server leaves it
	// ungranted and ignores the field.
	CapTenant uint64 = 1 << 1
)

// Magic opens every session stream: "RDS" + Version.
var Magic = [4]byte{'R', 'D', 'S', Version}

// FrameType tags a frame.
type FrameType uint8

const (
	// FrameHello is the client's session request (EncodeHelloV3
	// payload).
	FrameHello FrameType = 1
	// FrameWelcome is the server's session grant (EncodeWelcomeV3
	// payload).
	FrameWelcome FrameType = 2
	// Type 3 is retired (it carried plain, uncompressed event batches);
	// a server answers it as an unexpected frame.

	// FrameFinish declares the client's stream complete; the server
	// answers with a Report. Empty payload.
	FrameFinish FrameType = 4
	// FrameReport carries the server's verdict (EncodeReport payload).
	FrameReport FrameType = 5
	// FrameError carries a fatal session error as UTF-8 text.
	FrameError FrameType = 6
	// FrameAck (server → client) names the highest contiguously
	// ingested event sequence (EncodeAck payload). The client may drop
	// acknowledged batches from its replay buffer.
	FrameAck FrameType = 7
	// FrameHeartbeat (both directions) is a keepalive. The payload
	// is empty; a peer that sees no frame for several heartbeat
	// intervals may declare the connection dead.
	FrameHeartbeat FrameType = 8
	// FrameEventsBlock carries a sequenced batch of events as a
	// self-contained compressed block (BlockEncoder payload); the server
	// acks it, and the client resends it on resume.
	FrameEventsBlock FrameType = 9
	// FrameReplHello ( primary → follower) opens a store-replication
	// stream instead of a detection session: it names the source chain
	// and carries the replication credential (EncodeReplHello payload).
	FrameReplHello FrameType = 10
	// FrameReplWelcome ( follower → primary) answers a ReplHello with
	// the follower's exact chain position so the primary can replay from
	// there (EncodeReplWelcome payload) — the anti-entropy handshake.
	FrameReplWelcome FrameType = 11
	// FrameReplRecord ( primary → follower) carries one hash-chained
	// store record, byte-identical to the source log's on-disk framing
	// (EncodeReplRecord payload).
	FrameReplRecord FrameType = 12
	// FrameReplAck ( follower → primary) acknowledges the highest
	// contiguously applied chain position (EncodeReplAck payload).
	FrameReplAck FrameType = 13
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameFinish:
		return "finish"
	case FrameReport:
		return "report"
	case FrameError:
		return "error"
	case FrameAck:
		return "ack"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameEventsBlock:
		return "events-block"
	case FrameReplHello:
		return "repl-hello"
	case FrameReplWelcome:
		return "repl-welcome"
	case FrameReplRecord:
		return "repl-record"
	case FrameReplAck:
		return "repl-ack"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// MaxFrameSize bounds a frame payload (4 MiB): large enough for tens of
// thousands of events per frame, small enough that a hostile length
// prefix cannot make the server allocate unboundedly.
const MaxFrameSize = 4 << 20

// Sentinel errors; all reads wrap these so callers can errors.Is.
var (
	// ErrTruncated aliases fj.ErrTruncated: the stream ended mid-frame.
	// One sentinel spans both layers, so a caller checking a decode
	// error needs a single errors.Is.
	ErrTruncated = fj.ErrTruncated
	// ErrChecksum reports a CRC mismatch — corruption or desync.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrFrameTooLarge reports a length prefix beyond MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrBadMagic reports a stream that does not open with the "RDS"
	// protocol magic at all — the peer is not speaking this protocol.
	ErrBadMagic = errors.New("wire: bad stream magic")
	// ErrEmptyHandshake reports a connection closed before a single
	// handshake byte arrived. Health probes (a TCP connect immediately
	// closed) look exactly like this; servers treat it as a probe, not a
	// refused handshake, so probing a raced does not pollute its
	// refusal accounting.
	ErrEmptyHandshake = errors.New("wire: connection closed before handshake")
	// ErrVersion reports an "RDS" stream whose version byte this
	// endpoint does not speak.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrUnknownResume reports a resume token the server no longer (or
	// never did) know — the session expired, finished and aged out, or
	// the server restarted. Sent to clients as an Error frame carrying
	// exactly this text, so both sides can classify it.
	ErrUnknownResume = errors.New("raced: unknown resume token")
	// ErrAuth reports a missing or invalid tenant credential against a
	// server that requires one. Sent as an Error frame whose text carries
	// HandshakeRefusedPrefix plus exactly this text; clients classify the
	// refusal as terminal (retrying the same credential cannot succeed).
	ErrAuth = errors.New("invalid tenant credentials")
	// ErrQuota reports a tenant at its session or storage quota. Same
	// framing and classification as ErrAuth: refusal text under
	// HandshakeRefusedPrefix, terminal for the client.
	ErrQuota = errors.New("tenant quota exceeded")
)

// HandshakeRefusedPrefix prefixes the Error-frame text a server sends
// when a handshake failed at the transport layer (garbled magic,
// unreadable Hello). Clients treat such refusals as retryable — the
// bytes, not the request, were at fault — unlike application refusals
// (session limit, unknown engine, unknown resume), which are terminal.
const HandshakeRefusedPrefix = "raced: handshake: "

const headerSize = 5 // type byte + uint32 length

// WriteMagic sends the stream-opening magic.
func WriteMagic(w io.Writer) error {
	_, err := w.Write(Magic[:])
	return err
}

// ReadMagic consumes the stream-opening magic. This is the one place
// the protocol version is decided: anything but Magic is ErrBadMagic
// (not our protocol), ErrVersion (our protocol, a version we do not
// speak), or ErrEmptyHandshake (a connect-and-close probe).
func ReadMagic(r io.Reader) error {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		if err == io.EOF {
			// Zero bytes before EOF: a connect-and-close probe, not a
			// garbled handshake.
			return fmt.Errorf("wire: read magic: %w", ErrEmptyHandshake)
		}
		return fmt.Errorf("wire: read magic: %w", wrapEOF(err))
	}
	if m[0] != 'R' || m[1] != 'D' || m[2] != 'S' {
		return fmt.Errorf("%w: %q", ErrBadMagic, m[:])
	}
	if m[3] != Version {
		return fmt.Errorf("%w: version %d, speak %d", ErrVersion, m[3], Version)
	}
	return nil
}

// AppendFrame appends a complete frame (header, payload, CRC) to dst
// and returns the extended slice — the allocation-free encoding path
// for senders that batch frames into one write.
func AppendFrame(dst []byte, t FrameType, payload []byte) []byte {
	dst = append(dst, byte(t))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	sum := crc32.ChecksumIEEE(dst[len(dst)-len(payload)-headerSize:])
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	buf := make([]byte, 0, headerSize+len(payload)+4)
	buf = AppendFrame(buf, t, payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from r, reusing scratch for the payload
// when it is large enough. The returned payload aliases the scratch
// buffer (or a fresh allocation) and is valid until the next reuse.
func ReadFrame(r io.Reader, scratch []byte) (t FrameType, payload []byte, err error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("wire: read frame header: %w", wrapEOF(err))
	}
	t = FrameType(hdr[0])
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	payload = scratch[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: read %s payload: %w", t, wrapEOF(err))
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return 0, nil, fmt.Errorf("wire: read %s checksum: %w", t, wrapEOF(err))
	}
	got := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, payload)
	if want := binary.LittleEndian.Uint32(tail[:]); got != want {
		return 0, nil, fmt.Errorf("%w: frame %s: %08x != %08x", ErrChecksum, t, got, want)
	}
	return t, payload, nil
}

func wrapEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w (%v)", ErrTruncated, err)
	}
	return err
}

// ---- handshake payloads -------------------------------------------------

// Hello is the client's session request.
type Hello struct {
	// Engine names the detector engine the session should run
	// (race2d.ParseEngine vocabulary; empty selects the default).
	Engine string
	// BatchSize asks the server to deliver events to the engine in
	// batches of this size. Zero delivers per event — the setting that
	// keeps remote Stats byte-identical to an unbuffered local run.
	BatchSize int
	// Token resumes a suspended session: zero requests a fresh
	// session, a non-zero value re-attaches to the session whose Welcome
	// carried it.
	Token uint64
	// Caps is the capability bitmask the client offers (CapTenant).
	Caps uint64
	// RouteKey is routing-relevant handshake metadata for session
	// gateways: a client-chosen placement key. A cluster gateway
	// (cmd/racedctl) consistent-hashes a non-zero RouteKey over its
	// backend ring, so sessions that should co-locate (same workload,
	// same tenant) can pin themselves to the same backend; zero lets the
	// gateway pick a key. The field rides after Caps and is optional on
	// decode, so pre-RouteKey peers interoperate unchanged; direct raced
	// servers ignore it.
	RouteKey uint64
	// Auth (CapTenant) is the tenant credential, spelled "tenant:key".
	// It rides at the end of the payload after RouteKey and is optional
	// on decode, so pre-Auth peers interoperate unchanged; servers
	// running without tenant keys ignore it. Gateways forward the Hello
	// payload byte-identically, so the credential reaches the backend
	// untouched.
	Auth string
}

// EncodeHelloV3 renders h as a frame payload: engine name, batch size,
// resume token, offered capability bitmask, routing key and tenant
// credential.
func EncodeHelloV3(h Hello) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(h.Engine)))
	buf = append(buf, h.Engine...)
	buf = binary.AppendUvarint(buf, uint64(h.BatchSize))
	buf = binary.AppendUvarint(buf, h.Token)
	buf = binary.AppendUvarint(buf, h.Caps)
	buf = binary.AppendUvarint(buf, h.RouteKey)
	buf = binary.AppendUvarint(buf, uint64(len(h.Auth)))
	return append(buf, h.Auth...)
}

// DecodeHelloV3 parses an EncodeHelloV3 payload. The trailing routing
// key and auth credential are each optional: a hello from an older
// sender decodes with RouteKey zero and Auth empty, and bytes past the
// fields this version knows are ignored so future trailing fields keep
// interoperating.
func DecodeHelloV3(payload []byte) (Hello, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 || n > 1<<10 || uint64(len(payload)-k) < n {
		return Hello{}, fmt.Errorf("wire: hello: malformed engine name: %w", ErrTruncated)
	}
	h := Hello{Engine: string(payload[k : k+int(n)])}
	rest := payload[k+int(n):]
	b, k := binary.Uvarint(rest)
	if k <= 0 || b > 1<<20 {
		return Hello{}, fmt.Errorf("wire: hello: malformed batch size: %w", ErrTruncated)
	}
	h.BatchSize = int(b)
	rest = rest[k:]
	if h.Token, k = binary.Uvarint(rest); k <= 0 {
		return Hello{}, fmt.Errorf("wire: hello: malformed resume token: %w", ErrTruncated)
	}
	rest = rest[k:]
	if h.Caps, k = binary.Uvarint(rest); k <= 0 {
		return Hello{}, fmt.Errorf("wire: hello: malformed capability bits: %w", ErrTruncated)
	}
	rest = rest[k:]
	if len(rest) > 0 {
		if h.RouteKey, k = binary.Uvarint(rest); k <= 0 {
			return Hello{}, fmt.Errorf("wire: hello: malformed route key: %w", ErrTruncated)
		}
		rest = rest[k:]
	}
	if len(rest) > 0 {
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > 1<<10 || uint64(len(rest)-k) < n {
			return Hello{}, fmt.Errorf("wire: hello: malformed auth credential: %w", ErrTruncated)
		}
		h.Auth = string(rest[k : k+int(n)])
	}
	return h, nil
}

// Welcome is the server's session grant.
type Welcome struct {
	// Session is the server-assigned session identifier, echoed in logs
	// and metrics.
	Session uint64
	// Token is the resume token a reconnecting client presents in Hello
	// to re-attach to this session. Never zero.
	Token uint64
	// NextSeq is the next EventsBlock sequence number the server expects: 1
	// for a fresh session, last-contiguously-ingested+1 on resume. The
	// client resends its replay buffer from here; earlier sequences are
	// already ingested and would be discarded.
	NextSeq uint64
	// Caps is the granted capability bitmask: the intersection of what
	// the client offered and what the server allows. The client must not
	// use a capability the Welcome did not grant.
	Caps uint64
}

// EncodeWelcomeV3 renders w as a frame payload: session id, resume
// token, next expected sequence, granted capability bitmask.
func EncodeWelcomeV3(w Welcome) []byte {
	buf := binary.AppendUvarint(nil, w.Session)
	buf = binary.AppendUvarint(buf, w.Token)
	buf = binary.AppendUvarint(buf, w.NextSeq)
	return binary.AppendUvarint(buf, w.Caps)
}

// DecodeWelcomeV3 parses an EncodeWelcomeV3 payload.
func DecodeWelcomeV3(payload []byte) (Welcome, error) {
	var w Welcome
	for _, field := range []*uint64{&w.Session, &w.Token, &w.NextSeq, &w.Caps} {
		v, k := binary.Uvarint(payload)
		if k <= 0 {
			return Welcome{}, fmt.Errorf("wire: welcome: %w", ErrTruncated)
		}
		*field = v
		payload = payload[k:]
	}
	return w, nil
}

// ---- acknowledgement payload ---------------------------------------

// EncodeAck renders the highest contiguously ingested sequence as an
// Ack frame payload.
func EncodeAck(seq uint64) []byte {
	return binary.AppendUvarint(nil, seq)
}

// DecodeAck parses an EncodeAck payload.
func DecodeAck(payload []byte) (uint64, error) {
	seq, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, fmt.Errorf("wire: ack: %w", ErrTruncated)
	}
	return seq, nil
}

// ---- report payload -----------------------------------------------------

// Report flags.
const (
	// FlagPartial marks a report produced by a draining server: it
	// covers the prefix of the stream consumed before shutdown.
	FlagPartial = 1 << 0
)

// EncodeReport renders a report frame payload: uvarint flags + the
// report's JSON bytes (race2d.Report MarshalJSON form).
func EncodeReport(flags uint64, reportJSON []byte) []byte {
	buf := binary.AppendUvarint(nil, flags)
	return append(buf, reportJSON...)
}

// DecodeReport parses an EncodeReport payload.
func DecodeReport(payload []byte) (flags uint64, reportJSON []byte, err error) {
	flags, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, nil, fmt.Errorf("wire: report: flags: %w", ErrTruncated)
	}
	return flags, payload[k:], nil
}
