package race2d

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
)

// The Report's JSON form is written and read by the hand-written codec
// below; its bytes are exactly what encoding/json produces for the
// schema
//
//	{"engine": string, "tasks": int, "locations": int, "race_count": int,
//	 "races": [{"location": string, "kind": string, "current_task": int,
//	            "prior_root_task": int, "precise": bool}],
//	 "memory_bytes": int, "stats": obs.Stats}
//
// in both its compact (json.Marshal) and indented (json.MarshalIndent
// with two spaces) forms. report_test.go keeps the reflective
// encoding/json implementation as the oracle both directions are
// checked against.

// MarshalJSON renders the report for tooling as compact JSON.
// Locations are resolved through Report.AddrName when set (DetectSource
// sets it to the source-level names); otherwise they render as hex
// addresses.
func (r *Report) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, r.jsonSizeHint(false)), r.AddrName, false)
}

// WriteJSON writes the report as indented JSON, resolving location
// names through locName; nil falls back to Report.AddrName and then to
// hex addresses.
func (r *Report) WriteJSON(w io.Writer, locName func(Addr) string) error {
	if locName == nil {
		locName = r.AddrName
	}
	data, err := r.appendJSON(make([]byte, 0, r.jsonSizeHint(true)), locName, true)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// jsonSizeHint estimates the size of the report's JSON with hex
// locations, so that one allocation usually holds it: about 100 bytes
// per race compact and 150 indented, plus the counters.
func (r *Report) jsonSizeHint(indent bool) int {
	if indent {
		return 1024 + 150*len(r.Races)
	}
	return 768 + 100*len(r.Races)
}

// appendJSON appends the report's JSON to dst: indented as
// json.MarshalIndent(v, "", "  ") writes it, or compact as json.Marshal
// does. A nil locName renders locations as hex addresses.
func (r *Report) appendJSON(dst []byte, locName func(Addr) string, indent bool) ([]byte, error) {
	w := jsonWriter{b: dst, indent: indent}
	w.open('{')
	w.key("engine")
	w.b = appendJSONString(w.b, r.Engine.String())
	w.key("tasks")
	w.b = strconv.AppendInt(w.b, int64(r.Tasks), 10)
	w.key("locations")
	w.b = strconv.AppendInt(w.b, int64(r.Locations), 10)
	w.key("race_count")
	w.b = strconv.AppendInt(w.b, int64(r.Count), 10)
	w.key("races")
	w.open('[')
	for i, race := range r.Races {
		w.next()
		w.open('{')
		w.key("location")
		if locName != nil {
			w.b = appendJSONString(w.b, locName(race.Loc))
		} else {
			w.b = append(w.b, `"0x`...)
			w.b = strconv.AppendUint(w.b, uint64(race.Loc), 16)
			w.b = append(w.b, '"')
		}
		w.key("kind")
		w.b = appendJSONString(w.b, race.Kind.String())
		w.key("current_task")
		w.b = strconv.AppendInt(w.b, int64(race.Current), 10)
		w.key("prior_root_task")
		w.b = strconv.AppendInt(w.b, int64(race.Prior), 10)
		w.key("precise")
		w.b = strconv.AppendBool(w.b, i == 0)
		w.close('}')
	}
	w.close(']')
	w.key("memory_bytes")
	w.b = strconv.AppendInt(w.b, int64(r.MemoryBytes), 10)
	w.key("stats")
	w.open('{')
	for _, f := range statsFields {
		if f.u != nil {
			if v := *f.u(&r.Stats); v != 0 {
				w.key(f.name)
				w.b = strconv.AppendUint(w.b, v, 10)
			}
			continue
		}
		if v := *f.f(&r.Stats); v != 0 {
			w.key(f.name)
			var err error
			if w.b, err = appendJSONFloat(w.b, v); err != nil {
				return dst, err
			}
		}
	}
	w.close('}')
	w.close('}')
	return w.b, nil
}

// jsonWriter lays out objects and arrays the way encoding/json does:
// compact, or one member per line indented two spaces per level, with
// an empty object or array rendered as {} or [].
type jsonWriter struct {
	b      []byte
	indent bool
	depth  int
	empty  bool // the innermost open object or array has no member yet
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// next starts a member of the innermost object or array.
func (w *jsonWriter) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

// key starts an object member named name, which needs no escaping.
func (w *jsonWriter) key(name string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	if w.indent {
		w.b = append(w.b, `": `...)
	} else {
		w.b = append(w.b, `":`...)
	}
}

// newline ends an indented line and indents the next; a Report nests
// three levels deep at most.
func (w *jsonWriter) newline() {
	if w.indent {
		w.b = append(w.b, "\n        "[:1+2*w.depth]...)
	}
}

// appendJSONString appends s as a JSON string. Printable ASCII other
// than '"', '\\' and the HTML-sensitive '<', '>' and '&' stands for
// itself; any other string takes encoding/json's string encoding, so
// escapes, HTML escaping, U+2028/U+2029 and invalid UTF-8 render as
// json.Marshal renders them.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or the 'e' form below 1e-6 and from 1e21 with a
// one-digit negative exponent unpadded. NaN and ±Inf are errors.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// statsField is one obs.Stats counter as the Report JSON names it:
// its JSON key and its field. Exactly one of u and f is set.
type statsField struct {
	name string
	u    func(*Stats) *uint64
	f    func(*Stats) *float64
}

// statsFields lists every obs.Stats field in declaration order, the
// order encoding/json writes them in; zero fields are omitted, as their
// omitempty tags ask.
var statsFields = [...]statsField{
	{name: "reads", u: func(s *Stats) *uint64 { return &s.Reads }},
	{name: "writes", u: func(s *Stats) *uint64 { return &s.Writes }},
	{name: "forks", u: func(s *Stats) *uint64 { return &s.Forks }},
	{name: "joins", u: func(s *Stats) *uint64 { return &s.Joins }},
	{name: "halts", u: func(s *Stats) *uint64 { return &s.Halts }},
	{name: "sup_queries", u: func(s *Stats) *uint64 { return &s.SupQueries }},
	{name: "visits", u: func(s *Stats) *uint64 { return &s.Visits }},
	{name: "finds", u: func(s *Stats) *uint64 { return &s.Finds }},
	{name: "unions", u: func(s *Stats) *uint64 { return &s.Unions }},
	{name: "path_steps", u: func(s *Stats) *uint64 { return &s.PathSteps }},
	{name: "table_probes", u: func(s *Stats) *uint64 { return &s.TableProbes }},
	{name: "table_rehash_steps", u: func(s *Stats) *uint64 { return &s.TableRehashSteps }},
	{name: "table_grows", u: func(s *Stats) *uint64 { return &s.TableGrows }},
	{name: "clock_joins", u: func(s *Stats) *uint64 { return &s.ClockJoins }},
	{name: "clock_entries_scanned", u: func(s *Stats) *uint64 { return &s.ClockEntries }},
	{name: "epoch_hits", u: func(s *Stats) *uint64 { return &s.EpochHits }},
	{name: "read_shares", u: func(s *Stats) *uint64 { return &s.ReadShares }},
	{name: "accesses_scanned", u: func(s *Stats) *uint64 { return &s.SetScans }},
	{name: "list_inserts", u: func(s *Stats) *uint64 { return &s.ListInserts }},
	{name: "order_queries", u: func(s *Stats) *uint64 { return &s.OrderQueries }},
	{name: "races", u: func(s *Stats) *uint64 { return &s.Races }},
	{name: "locations", u: func(s *Stats) *uint64 { return &s.Locations }},
	{name: "bytes_per_location", f: func(s *Stats) *float64 { return &s.BytesPerLocation }},
	{name: "producers", u: func(s *Stats) *uint64 { return &s.Producers }},
	{name: "events_buffered", u: func(s *Stats) *uint64 { return &s.EventsBuffered }},
	{name: "max_queue_depth", u: func(s *Stats) *uint64 { return &s.MaxQueueDepth }},
	{name: "producer_stalls", u: func(s *Stats) *uint64 { return &s.ProducerStalls }},
	{name: "sessions", u: func(s *Stats) *uint64 { return &s.Sessions }},
	{name: "sessions_rejected", u: func(s *Stats) *uint64 { return &s.SessionsRejected }},
	{name: "evictions", u: func(s *Stats) *uint64 { return &s.Evictions }},
	{name: "frames", u: func(s *Stats) *uint64 { return &s.Frames }},
	{name: "wire_bytes", u: func(s *Stats) *uint64 { return &s.WireBytes }},
	{name: "reconnects", u: func(s *Stats) *uint64 { return &s.Reconnects }},
	{name: "resends", u: func(s *Stats) *uint64 { return &s.Resends }},
	{name: "dups_dropped", u: func(s *Stats) *uint64 { return &s.DupsDropped }},
	{name: "heartbeats_missed", u: func(s *Stats) *uint64 { return &s.HeartbeatsMissed }},
	{name: "resumes", u: func(s *Stats) *uint64 { return &s.Resumes }},
	{name: "handshake_refusals", u: func(s *Stats) *uint64 { return &s.HandshakeRefusals }},
	{name: "wire_blocks", u: func(s *Stats) *uint64 { return &s.WireBlocks }},
	{name: "wire_bytes_blocks", u: func(s *Stats) *uint64 { return &s.WireBytesBlocks }},
	{name: "wire_bytes_raw", u: func(s *Stats) *uint64 { return &s.WireBytesRaw }},
}

// statsNames lists statsFields' JSON keys, for matchKey.
var statsNames = func() []string {
	names := make([]string, len(statsFields))
	for i, f := range statsFields {
		names[i] = f.name
	}
	return names
}()

// UnmarshalJSON restores a report from its JSON form, so stats
// pipelines can round-trip reports through files. It accepts exactly
// the inputs json.Unmarshal accepts for the schema above — any
// whitespace and key order, case-insensitive keys, unknown keys
// skipped, null leaving a field as it is — and also refuses an unknown
// engine or race kind. Locations rendered as hex addresses parse back
// exactly; symbolic names (from a WriteJSON resolver) have no inverse
// and leave the race's Loc zero.
func (r *Report) UnmarshalJSON(data []byte) error {
	d := jsonDecoder{s: string(data)}
	var in reportFields
	if err := d.document(&in); err != nil {
		return err
	}
	engine, err := ParseEngine(in.engine)
	if err != nil {
		return err
	}
	*r = Report{
		Count:       in.raceCount,
		Tasks:       in.tasks,
		Locations:   in.locations,
		MemoryBytes: in.memoryBytes,
		Engine:      engine,
		Stats:       in.stats,
	}
	if len(in.races) > 0 {
		r.Races = make([]Race, 0, len(in.races))
	}
	for _, race := range in.races {
		out := Race{Current: race.current, Prior: race.prior}
		if a, err := strconv.ParseUint(race.location, 0, 64); err == nil {
			out.Loc = Addr(a)
		}
		switch race.kind {
		case core.ReadWrite.String():
			out.Kind = core.ReadWrite
		case core.WriteWrite.String():
			out.Kind = core.WriteWrite
		case core.WriteRead.String():
			out.Kind = core.WriteRead
		default:
			return fmt.Errorf("race2d: unknown race kind %q", race.kind)
		}
		r.Races = append(r.Races, out)
	}
	return nil
}

// reportFields holds a Report's JSON fields as decoded, before the
// engine and race kinds are resolved.
type reportFields struct {
	engine                                   string
	tasks, locations, raceCount, memoryBytes int
	races                                    []raceFields
	stats                                    Stats
}

// raceFields is one element of the "races" array as decoded. Its
// layout is the one encoding/json decodes such an element into, and
// the decoder grows its slice as encoding/json grows a slice target
// (append when full, re-slice into spare capacity, fresh on []), so a
// repeated "races" key merges into earlier elements just as there.
type raceFields struct {
	location, kind string
	current, prior int
	precise        bool
}

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// jsonDecoder scans a Report's JSON text. It validates everything it
// reads, skipped values included, with encoding/json's grammar.
type jsonDecoder struct {
	s     string
	off   int
	depth int
}

func (d *jsonDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("race2d: report JSON: offset %d: "+format, append([]any{d.off}, args...)...)
}

// document decodes one top-level value into in and requires the input
// to end after it.
func (d *jsonDecoder) document(in *reportFields) error {
	d.space()
	switch d.peek() {
	case '{':
		if err := d.object(func(key string) error {
			switch matchKey(key, "engine", "tasks", "locations", "race_count", "races", "memory_bytes", "stats") {
			case 0:
				return d.str(&in.engine)
			case 1:
				return d.int(&in.tasks)
			case 2:
				return d.int(&in.locations)
			case 3:
				return d.int(&in.raceCount)
			case 4:
				return d.races(&in.races)
			case 5:
				return d.int(&in.memoryBytes)
			case 6:
				return d.stats(&in.stats)
			}
			return d.skip()
		}); err != nil {
			return err
		}
	case 'n':
		if err := d.null(); err != nil {
			return err
		}
	default:
		return d.typeError("a report")
	}
	d.space()
	if d.off < len(d.s) {
		return d.errorf("invalid character %q after top-level value", d.s[d.off])
	}
	return nil
}

// races decodes the "races" array into *rs.
func (d *jsonDecoder) races(rs *[]raceFields) error {
	switch d.peek() {
	case 'n':
		if err := d.null(); err != nil {
			return err
		}
		*rs = nil
		return nil
	case '[':
	default:
		return d.typeError("races")
	}
	s := *rs
	i := 0
	err := d.members('[', ']', func() error {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			s = append(s, raceFields{})
		}
		i++
		return d.race(&s[i-1])
	})
	if err != nil {
		return err
	}
	if i == 0 {
		s = []raceFields{}
	}
	*rs = s[:i]
	return nil
}

// race decodes one element of the "races" array into rf.
func (d *jsonDecoder) race(rf *raceFields) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '{':
	default:
		return d.typeError("race")
	}
	return d.object(func(key string) error {
		switch matchKey(key, "location", "kind", "current_task", "prior_root_task", "precise") {
		case 0:
			return d.str(&rf.location)
		case 1:
			return d.str(&rf.kind)
		case 2:
			return d.int(&rf.current)
		case 3:
			return d.int(&rf.prior)
		case 4:
			return d.bool(&rf.precise)
		}
		return d.skip()
	})
}

// stats decodes the "stats" object into st through statsFields.
func (d *jsonDecoder) stats(st *Stats) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '{':
	default:
		return d.typeError("stats")
	}
	return d.object(func(key string) error {
		switch i := matchKey(key, statsNames...); {
		case i < 0:
			return d.skip()
		case statsFields[i].u != nil:
			return d.uint(statsFields[i].u(st))
		default:
			return d.float(statsFields[i].f(st))
		}
	})
}

// matchKey returns the index of the name key selects, or -1: an exact
// match first, then a case-insensitive one, as encoding/json matches
// keys to struct fields.
func matchKey(key string, names ...string) int {
	for i, n := range names {
		if n == key {
			return i
		}
	}
	for i, n := range names {
		if strings.EqualFold(n, key) {
			return i
		}
	}
	return -1
}

// object decodes the object at the cursor, handing each member's
// unescaped key to member with the cursor on its value.
func (d *jsonDecoder) object(member func(key string) error) error {
	return d.members('{', '}', func() error {
		if d.peek() != '"' {
			return d.errorf("want an object key")
		}
		key, err := d.string()
		if err != nil {
			return err
		}
		d.space()
		if err := d.expect(':'); err != nil {
			return err
		}
		d.space()
		return member(key)
	})
}

// members steps through the object or array at the cursor, which opens
// with open and closes with end, calling member at the start of each
// comma-separated member.
func (d *jsonDecoder) members(open, end byte, member func() error) error {
	if err := d.expect(open); err != nil {
		return err
	}
	if d.depth++; d.depth > maxJSONDepth {
		return d.errorf("exceeded max depth")
	}
	d.space()
	if d.peek() == end {
		d.off++
		d.depth--
		return nil
	}
	for {
		if err := member(); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.off++
			d.space()
		case end:
			d.off++
			d.depth--
			return nil
		default:
			return d.errorf("want %q or %q", ',', end)
		}
	}
}

// skip validates and steps over one value of any type.
func (d *jsonDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func(string) error { return d.skip() })
	case c == '[':
		return d.members('[', ']', d.skip)
	case c == '"':
		_, err := d.string()
		return err
	case c == '-' || c >= '0' && c <= '9':
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.null()
	}
	return d.errorf("want a value")
}

func (d *jsonDecoder) typeError(what string) error {
	return d.errorf("cannot decode %s from this value", what)
}

// str decodes a string field; null leaves it as it is.
func (d *jsonDecoder) str(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '"':
		s, err := d.string()
		*dst = s
		return err
	}
	return d.typeError("a string")
}

// int decodes an int field; null leaves it as it is.
func (d *jsonDecoder) int(dst *int) error {
	if d.peek() == 'n' {
		return d.null()
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		return d.errorf("cannot decode number %s into an int", lit)
	}
	*dst = int(v)
	return nil
}

// uint decodes a uint64 field; null leaves it as it is.
func (d *jsonDecoder) uint(dst *uint64) error {
	if d.peek() == 'n' {
		return d.null()
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseUint(lit, 10, 64)
	if err != nil {
		return d.errorf("cannot decode number %s into a uint64", lit)
	}
	*dst = v
	return nil
}

// float decodes a float64 field; null leaves it as it is.
func (d *jsonDecoder) float(dst *float64) error {
	if d.peek() == 'n' {
		return d.null()
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return d.errorf("cannot decode number %s into a float64", lit)
	}
	*dst = v
	return nil
}

// bool decodes a bool field; null leaves it as it is.
func (d *jsonDecoder) bool(dst *bool) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	}
	return d.typeError("a bool")
}

func (d *jsonDecoder) null() error { return d.literal("null") }

func (d *jsonDecoder) literal(lit string) error {
	if !strings.HasPrefix(d.s[d.off:], lit) {
		return d.errorf("invalid literal, want %s", lit)
	}
	d.off += len(lit)
	return nil
}

// number steps over a number in JSON's grammar and returns its text.
func (d *jsonDecoder) number() (string, error) {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case c >= '1' && c <= '9':
		d.digits()
	default:
		return "", d.errorf("want a number")
	}
	if d.peek() == '.' {
		d.off++
		if !d.digits() {
			return "", d.errorf("want a digit after the decimal point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !d.digits() {
			return "", d.errorf("want a digit in the exponent")
		}
	}
	return d.s[start:d.off], nil
}

// digits steps over a run of decimal digits, reporting whether there
// was one.
func (d *jsonDecoder) digits() bool {
	i := d.off
	for i < len(d.s) && d.s[i] >= '0' && d.s[i] <= '9' {
		i++
	}
	ok := i > d.off
	d.off = i
	return ok
}

// string decodes the string at the cursor. A string of printable ASCII
// without escapes is returned as a slice of the input; any other is
// unquoted as encoding/json unquotes it: invalid UTF-8 and unpaired
// surrogates become U+FFFD.
func (d *jsonDecoder) string() (string, error) {
	start := d.off + 1
	i := start
	for i < len(d.s) && jsonPlain[d.s[i]] {
		i++
	}
	if i < len(d.s) && d.s[i] == '"' {
		d.off = i + 1
		return d.s[start:i], nil
	}
	d.off = i
	return d.unquote(start)
}

// jsonPlain marks the bytes that stand for themselves in a JSON string
// and are ASCII: not '"', '\\', a control character or a UTF-8 byte.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote finishes a string that starts at start and needs escapes
// resolved or its UTF-8 checked; the cursor is at or before the first
// such byte.
func (d *jsonDecoder) unquote(start int) (string, error) {
	b := make([]byte, 0, 2*(d.off-start)+8)
	b = append(b, d.s[start:d.off]...)
	for d.off < len(d.s) {
		c := d.s[d.off]
		switch {
		case c == '"':
			d.off++
			return string(b), nil
		case c < 0x20:
			return "", d.errorf("invalid character %q in string literal", c)
		case c == '\\':
			if d.off+1 >= len(d.s) {
				return "", d.errorf("unexpected end of JSON input")
			}
			d.off += 2
			switch e := d.s[d.off-1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := d.hex4()
				if r < 0 {
					return "", d.errorf("invalid \\u escape")
				}
				if utf16.IsSurrogate(r) {
					// A valid pair is consumed whole; otherwise the
					// first half alone becomes U+FFFD.
					save := d.off
					if strings.HasPrefix(d.s[d.off:], `\u`) {
						d.off += 2
						if r2 := d.hex4(); r2 >= 0 {
							if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
								b = utf8.AppendRune(b, dec)
								continue
							}
						}
					}
					d.off = save
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
			default:
				return "", d.errorf("invalid escape character %q in string literal", e)
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.off++
		default:
			r, size := utf8.DecodeRuneInString(d.s[d.off:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, d.s[d.off:d.off+size]...)
			}
			d.off += size
		}
	}
	return "", d.errorf("unexpected end of JSON input")
}

// hex4 reads the four hex digits of a \u escape, or returns -1.
func (d *jsonDecoder) hex4() rune {
	if d.off+4 > len(d.s) {
		return -1
	}
	var r rune
	for _, c := range []byte(d.s[d.off : d.off+4]) {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	d.off += 4
	return r
}

func (d *jsonDecoder) space() {
	i := d.off
	for i < len(d.s) && (d.s[i] == ' ' || d.s[i] == '\n' || d.s[i] == '\t' || d.s[i] == '\r') {
		i++
	}
	d.off = i
}

// peek returns the byte at the cursor, or 0 at the end of the input.
func (d *jsonDecoder) peek() byte {
	if d.off < len(d.s) {
		return d.s[d.off]
	}
	return 0
}

func (d *jsonDecoder) expect(c byte) error {
	if d.peek() != c {
		return d.errorf("want %q", c)
	}
	d.off++
	return nil
}
