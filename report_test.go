package race2d

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/workload"
)

func racyReport(t *testing.T) *Report {
	t.Helper()
	rep, err := Detect(func(tk *Task) {
		h := tk.Fork(func(c *Task) { c.Write(0x10) })
		tk.Write(0x10)
		tk.Read(0x20)
		tk.Join(h)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Racy() {
		t.Fatal("expected a racy report")
	}
	return rep
}

// TestReportJSONRoundTrip: a report marshaled with hex locations
// unmarshals back to an equal report, stats included.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := racyReport(t)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", &back, rep)
	}
	if back.Stats.MemOps() == 0 || back.Stats.Finds != back.Stats.SupQueries {
		t.Fatalf("stats did not survive the round trip: %+v", back.Stats)
	}
}

// TestWriteJSONResolvers: nil resolver renders hex addresses; a custom
// resolver renders symbolic names.
func TestWriteJSONResolvers(t *testing.T) {
	rep := racyReport(t)
	var hex bytes.Buffer
	if err := rep.WriteJSON(&hex, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hex.String(), `"location": "0x10"`) {
		t.Fatalf("nil resolver output lacks hex address:\n%s", hex.String())
	}
	var sym bytes.Buffer
	err := rep.WriteJSON(&sym, func(a Addr) string {
		if a == 0x10 {
			return "counter"
		}
		return "?"
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sym.String(), `"location": "counter"`) {
		t.Fatalf("custom resolver not applied:\n%s", sym.String())
	}
	if !json.Valid(sym.Bytes()) {
		t.Fatal("WriteJSON produced invalid JSON")
	}
}

// TestPreciseMarker: only the first retained race is marked precise, in
// both the JSON and String renderings — the paper's up-to-first-race
// guarantee.
func TestPreciseMarker(t *testing.T) {
	rep, err := Detect(func(tk *Task) {
		for i := 0; i < 3; i++ {
			tk.Fork(func(c *Task) { c.Write(7) })
		}
		tk.Write(7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) < 2 {
		t.Fatalf("want multiple retained races, got %d", len(rep.Races))
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var shape struct {
		Races []struct {
			Precise bool `json:"precise"`
		} `json:"races"`
	}
	if err := json.Unmarshal(data, &shape); err != nil {
		t.Fatal(err)
	}
	for i, r := range shape.Races {
		if r.Precise != (i == 0) {
			t.Fatalf("race %d precise = %v", i, r.Precise)
		}
	}
	if strings.Count(rep.String(), "(precise)") != 1 {
		t.Fatalf("String marks precise %d times:\n%s", strings.Count(rep.String(), "(precise)"), rep)
	}
}

// TestUnmarshalRejectsUnknowns: bad engine names and race kinds are
// errors, not silent zero values.
func TestUnmarshalRejectsUnknowns(t *testing.T) {
	var rep Report
	if err := json.Unmarshal([]byte(`{"engine":"warp"}`), &rep); err == nil {
		t.Fatal("unknown engine accepted")
	}
	bad := `{"engine":"2d","races":[{"location":"0x1","kind":"sideways"}]}`
	if err := json.Unmarshal([]byte(bad), &rep); err == nil {
		t.Fatal("unknown race kind accepted")
	}
}

// TestUnmarshalIgnoresRetiredShardFields: a Report written by the
// removed sharded backend (the CLI's former two-shard JSON output)
// still unmarshals; its shard counters are dropped and the verdict and
// the remaining counters survive.
func TestUnmarshalIgnoresRetiredShardFields(t *testing.T) {
	const sharded = `{
  "engine": "2d",
  "tasks": 3,
  "locations": 1,
  "race_count": 1,
  "races": [
    {
      "location": "0x10",
      "kind": "read-write",
      "current_task": 0,
      "prior_root_task": 2,
      "precise": true
    }
  ],
  "memory_bytes": 1696,
  "stats": {
    "reads": 2,
    "writes": 1,
    "sup_queries": 2,
    "races": 1,
    "locations": 1,
    "shards": 2,
    "shard_events_max": 3,
    "cross_shard_handoffs": 3,
    "shard_stalls": 1
  }
}`
	var rep Report
	if err := json.Unmarshal([]byte(sharded), &rep); err != nil {
		t.Fatalf("sharded-era report rejected: %v", err)
	}
	want := Report{
		Races:       []Race{{Loc: 0x10, Kind: core.ReadWrite, Current: 0, Prior: 2}},
		Count:       1,
		Tasks:       3,
		Locations:   1,
		MemoryBytes: 1696,
		Engine:      Engine2D,
		Stats:       Stats{Reads: 2, Writes: 1, SupQueries: 2, Races: 1, Locations: 1},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("unmarshal = %+v\nwant %+v", rep, want)
	}
	out, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out, []byte("shard")) {
		t.Fatalf("re-marshaled report still names shards: %s", out)
	}
}

// --- the reflective oracle ----------------------------------------------

// oracleRace and oracleReport are the Report's JSON shape as the
// reflective encoding/json implementation that report.go's codec
// replaced declared it. They are the oracle the codec is checked
// against, byte for byte and value for value.
type oracleRace struct {
	Location string `json:"location"`
	Kind     string `json:"kind"`
	Current  int    `json:"current_task"`
	Prior    int    `json:"prior_root_task"`
	Precise  bool   `json:"precise"`
}

type oracleReport struct {
	Engine      string       `json:"engine"`
	Tasks       int          `json:"tasks"`
	Locations   int          `json:"locations"`
	RaceCount   int          `json:"race_count"`
	Races       []oracleRace `json:"races"`
	MemoryBytes int          `json:"memory_bytes"`
	Stats       Stats        `json:"stats"`
}

func oracleShape(r *Report, locName func(Addr) string) oracleReport {
	if locName == nil {
		locName = func(a Addr) string { return fmt.Sprintf("%#x", uint64(a)) }
	}
	out := oracleReport{
		Engine:      r.Engine.String(),
		Tasks:       r.Tasks,
		Locations:   r.Locations,
		RaceCount:   r.Count,
		Races:       make([]oracleRace, 0, len(r.Races)),
		MemoryBytes: r.MemoryBytes,
		Stats:       r.Stats,
	}
	for i, race := range r.Races {
		out.Races = append(out.Races, oracleRace{
			Location: locName(race.Loc),
			Kind:     race.Kind.String(),
			Current:  race.Current,
			Prior:    race.Prior,
			Precise:  i == 0,
		})
	}
	return out
}

// oracleEncode renders r as the reflective implementation did: indented
// as WriteJSON wrote it (without the final newline), or compact as
// json.Marshal(r) returned it.
func oracleEncode(r *Report, locName func(Addr) string, indent bool) ([]byte, error) {
	if indent {
		return json.MarshalIndent(oracleShape(r, locName), "", "  ")
	}
	return json.Marshal(oracleShape(r, locName))
}

// oracleDecode is the reflective UnmarshalJSON.
func oracleDecode(data []byte) (*Report, error) {
	var in oracleReport
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	engine, err := ParseEngine(in.Engine)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Count:       in.RaceCount,
		Tasks:       in.Tasks,
		Locations:   in.Locations,
		MemoryBytes: in.MemoryBytes,
		Engine:      engine,
		Stats:       in.Stats,
	}
	for _, race := range in.Races {
		out := Race{Current: race.Current, Prior: race.Prior}
		if a, err := strconv.ParseUint(race.Location, 0, 64); err == nil {
			out.Loc = Addr(a)
		}
		switch race.Kind {
		case core.ReadWrite.String():
			out.Kind = core.ReadWrite
		case core.WriteWrite.String():
			out.Kind = core.WriteWrite
		case core.WriteRead.String():
			out.Kind = core.WriteRead
		default:
			return nil, fmt.Errorf("race2d: unknown race kind %q", race.Kind)
		}
		r.Races = append(r.Races, out)
	}
	return r, nil
}

// checkCodec asserts that every way of encoding r gives the oracle's
// bytes, and that decoding them gives the oracle's Report.
func checkCodec(t *testing.T, name string, r *Report) {
	t.Helper()
	for _, indent := range []bool{false, true} {
		want, werr := oracleEncode(r, r.AddrName, indent)
		got, gerr := r.appendJSON(nil, r.AddrName, indent)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s (indent %v): error %v, oracle error %v", name, indent, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s (indent %v): codec and oracle differ\n got %s\nwant %s", name, indent, got, want)
		}
		checkDecode(t, name, want)
	}
	compact, err := oracleEncode(r, r.AddrName, false)
	if err != nil {
		if _, merr := json.Marshal(r); merr == nil {
			t.Fatalf("%s: json.Marshal accepted what the oracle refuses (%v)", name, err)
		}
		return
	}
	if got, _ := r.MarshalJSON(); !bytes.Equal(got, compact) {
		t.Fatalf("%s: MarshalJSON is not the compact form:\n got %s\nwant %s", name, got, compact)
	}
	if got, _ := json.Marshal(r); !bytes.Equal(got, compact) {
		t.Fatalf("%s: json.Marshal changed:\n got %s\nwant %s", name, got, compact)
	}
	indented, _ := oracleEncode(r, r.AddrName, true)
	if got, _ := json.MarshalIndent(r, "", "  "); !bytes.Equal(got, indented) {
		t.Fatalf("%s: json.MarshalIndent changed:\n got %s\nwant %s", name, got, indented)
	}
	var w bytes.Buffer
	if err := r.WriteJSON(&w, nil); err != nil || !bytes.Equal(w.Bytes(), append(indented, '\n')) {
		t.Fatalf("%s: WriteJSON (%v):\n got %s\nwant %s", name, err, w.Bytes(), indented)
	}
}

// checkDecode asserts that UnmarshalJSON accepts data exactly when the
// oracle does, and then yields the oracle's Report.
func checkDecode(t *testing.T, name string, data []byte) {
	t.Helper()
	want, werr := oracleDecode(data)
	var got Report
	gerr := got.UnmarshalJSON(data)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: decode error %v, oracle error %v\ninput %q", name, gerr, werr, data)
	}
	if werr == nil && !reflect.DeepEqual(&got, want) {
		t.Fatalf("%s: decode differs from the oracle\n got %+v\nwant %+v\ninput %q", name, &got, want, data)
	}
}

// verdictReports replays n traces shaped like perfbench's `verdicts`
// pool (seed 1): short racy fork-join programs of about 4,000 events,
// whose Reports carry hundreds of races.
func verdictReports(tb testing.TB, n int) []*Report {
	tb.Helper()
	rng := rand.New(rand.NewSource(1 ^ 0x5eed))
	reps := make([]*Report, 0, n)
	for len(reps) < n {
		tr := &fj.Trace{}
		_, err := fj.Run(func(t *fj.Task) {
			for len(tr.Events) < 4000 {
				workload.ForkJoin{Seed: rng.Int63(), Ops: 400, MaxDepth: 8,
					Mix: workload.Mix{Locs: 128, ReadFrac: 0.8, Block: 2}}.Program()(t)
			}
		}, tr, fj.Options{AutoJoin: true})
		if err != nil {
			tb.Fatal(err)
		}
		d := NewEngineSink(Engine2D)
		tr.Replay(d)
		reps = append(reps, d.Report())
	}
	return reps
}

// TestReportCodecMatchesOracle: over the .fj corpus under every engine,
// perfbench-shaped traces and random Reports, both JSON forms equal the
// reflective oracle's byte for byte and decode to the oracle's Report.
func TestReportCodecMatchesOracle(t *testing.T) {
	for name, src := range corpusPrograms(t) {
		for e := Engine2D; e <= EngineNaive; e++ {
			rep, err := DetectSource(strings.NewReader(src), WithEngine(e))
			if err != nil {
				continue // an SP-only engine refusing a 2D program
			}
			label := fmt.Sprintf("%s/%s", name, e)
			checkCodec(t, label, rep)
			rep.AddrName = nil
			checkCodec(t, label+"/hex", rep)
		}
	}
	for i, rep := range verdictReports(t, 8) {
		checkCodec(t, fmt.Sprintf("verdicts-%d", i), rep)
	}
	pipe := &fj.Trace{}
	if _, err := (workload.Pipeline{Stages: 16, Items: 100, Payload: 4, Shared: true, RacySharing: true}).Run(pipe); err != nil {
		t.Fatal(err)
	}
	d := NewEngineSink(Engine2D)
	pipe.Replay(d)
	checkCodec(t, "pipeline", d.Report())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		checkCodec(t, fmt.Sprintf("random-%d", i), randomReport(rng))
	}
}

// randomReport builds a Report with random counters, floats across
// encoding/json's 'f'/'e' boundaries, races and, half the time,
// location names that need escaping.
func randomReport(rng *rand.Rand) *Report {
	ints := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Intn(100)
		case 2:
			return -rng.Intn(1 << 20)
		}
		return int(rng.Uint64())
	}
	r := &Report{
		Engine:      Engine(rng.Intn(8)),
		Count:       ints(),
		Tasks:       ints(),
		Locations:   ints(),
		MemoryBytes: ints(),
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		r.Races = append(r.Races, Race{Loc: Addr(rng.Uint64() >> uint(rng.Intn(64))),
			Kind: core.AccessKind(rng.Intn(3)), Current: ints(), Prior: ints()})
	}
	floats := []float64{0, 1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, 1.5e-300, 1e20, 1e21, 1.2e22, -3.25e-9, 137.75, math.MaxFloat64, math.SmallestNonzeroFloat64}
	st := reflect.ValueOf(&r.Stats).Elem()
	for i := 0; i < st.NumField(); i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		switch f := st.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(rng.Uint64() >> uint(rng.Intn(64)))
		case reflect.Float64:
			v := floats[rng.Intn(len(floats))]
			if rng.Intn(2) == 0 {
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			}
			f.SetFloat(v)
		}
	}
	if rng.Intn(2) == 0 {
		names := []string{"x", "a<b", "p&q", `quo"te`, `back\slash`, "tab\tnl\n", "\x00\x1f\x7f", "café", "line\u2028sep\u2029", "bad\xffutf8", "🙂", "</script>"}
		r.AddrName = func(a Addr) string { return names[int(a%Addr(len(names)))] }
	}
	return r
}

// TestReportJSONNonFinite: NaN and ±Inf counters are encoding errors, as
// they are for encoding/json.
func TestReportJSONNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rep := &Report{Stats: Stats{BytesPerLocation: v}}
		checkCodec(t, fmt.Sprint(v), rep)
		if _, err := rep.MarshalJSON(); err == nil {
			t.Fatalf("%v: MarshalJSON succeeded", v)
		}
		if err := rep.WriteJSON(io.Discard, nil); err == nil {
			t.Fatalf("%v: WriteJSON succeeded", v)
		}
	}
}

// TestReportDecodeMatchesOracle feeds the decoder inputs that stress
// encoding/json's edge cases: whitespace and key order, case-folded and
// escaped keys, nulls, repeated keys, numbers each field type refuses,
// string escapes and surrogates, unknown keys holding any value, and
// malformed JSON.
func TestReportDecodeMatchesOracle(t *testing.T) {
	inputs := []string{
		`{"engine":"2d"}`,
		` {"engine" : "vc" , "tasks":3} `,
		`{"tasks":3,"engine":"2d","stats":{"reads":1,"bytes_per_location":1.5e3}}`,
		`{"ENGINE":"2D","Race_Count":2,"MEMORY_BYTES":9}`,
		`{"\u0065ngine":"2d","tas\u212as":1}`,
		`{"engine":"2d","engine":"vc"}`,
		`null`, `[]`, `"2d"`, `1`, `true`, ``, ` `, `{}`, `{"engine":null}`,
		`{"engine":"2d","tasks":null,"races":null,"stats":null}`,
		`{"engine":"2d","races":[null]}`,
		`{"engine":"2d","races":[{"kind":"read-write","location":null,"precise":null}]}`,
		`{"engine":"2d","races":[{"location":"0x10","kind":"read-write"},{"location":"0X1f","kind":"write-read"},{"location":"17","kind":"write-write"}],"races":[{"kind":"write-write"}],"races":[{},{}]}`,
		`{"engine":"2d","races":[{"location":"0x10","kind":"read-write"}],"races":[],"races":[{}]}`,
		`{"engine":"2d","races":[{"location":"0x_1_0","kind":"read-write"},{"location":"0o17","kind":"read-write"},{"location":"0b101","kind":"read-write"},{"location":"name","kind":"read-write"},{"location":"-1","kind":"read-write"}]}`,
		`{"engine":"2d","races":[{"location":"0x1","kind":"sideways"}]}`,
		`{"engine":"2d","races":[{"location":"0x1","kind":"read-write","precise":1}]}`,
		`{"engine":"2d","races":{}}`, `{"engine":"2d","stats":[]}`, `{"engine":"2d","stats":{"reads":-1}}`,
		`{"engine":"2d","tasks":1.0}`, `{"engine":"2d","tasks":1e2}`, `{"engine":"2d","tasks":-0}`,
		`{"engine":"2d","tasks":9223372036854775807}`, `{"engine":"2d","tasks":9223372036854775808}`,
		`{"engine":"2d","stats":{"reads":18446744073709551615}}`, `{"engine":"2d","stats":{"reads":18446744073709551616}}`,
		`{"engine":"2d","stats":{"bytes_per_location":-0}}`, `{"engine":"2d","stats":{"bytes_per_location":1e400}}`,
		`{"engine":"2d","stats":{"bytes_per_location":1e-400}}`, `{"engine":"2d","stats":{"bytes_per_location":"1"}}`,
		`{"engine":"2d","stats":{"BYTES_PER_LOCATION":2,"ſhards":1,"reads":null}}`,
		`{"engine":"2d","tasks":01}`, `{"engine":"2d","tasks":1.}`, `{"engine":"2d","tasks":.5}`, `{"engine":"2d","tasks":-}`,
		`{"engine":"2d","tasks":1e}`, `{"engine":"2d","tasks":1E+2}`, `{"engine":"2d","tasks":+1}`,
		`{"engine":"2d",}`, `{"engine":"2d" "tasks":1}`, `{"engine":"2d"}x`, `{"engine":"2d"}{}`, `{"engine":"2d"`,
		`{"engine":"2d","x":[1,]}`, `{"engine":"2d","x":[,1]}`, `{"engine":"2d","x":{"a":1,}}`, `{"engine":"2d","x":{1:2}}`,
		`{"engine":"2d","x":[1,"a",{"b":[true,false,null]},-0.5e-3,[]]}`, `{"engine":"2d","x":tru}`, `{"engine":"2d","x":nul}`,
		`{"engine":"2d","x":"\ud83d\ude00 \ud800 \udc00x \ud800\u0041 \u00e9 \/ \b\f\n\r\t"}`,
		`{"engine":"2d","x":"\x"}`, `{"engine":"2d","x":"\u12"}`, `{"engine":"2d","x":"\u12g4"}`, "{\"engine\":\"2d\",\"x\":\"a\x01\"}",
		"{\"engine\":\"2d\",\"x\":\"\xff\xfe\"}", "{\"engine\":\"2\xffd\"}", "{\"engine\":\"2d\",\"races\":[{\"kind\":\"read-write\",\"location\":\"0x1\xff\"}]}",
		`{"engine":"2d","races":[{"kind":"read-\u0077rite","location":"\u0030x1"}]}`,
		`{"engine":"ft"}`, `{"engine":"Engine(9)"}`, `{"engine":"2d","race_count":"1"}`,
		"{\"engine\":\"2d\",\t\n\r\"tasks\"\n:\r4\t}",
	}
	for i, in := range inputs {
		checkDecode(t, fmt.Sprintf("input %d", i), []byte(in))
	}
	deep := `{"engine":"2d","x":` + strings.Repeat("[", maxJSONDepth-1) + strings.Repeat("]", maxJSONDepth-1) + `}`
	checkDecode(t, "depth at the limit", []byte(deep))
	deeper := `{"engine":"2d","x":` + strings.Repeat("[", maxJSONDepth) + strings.Repeat("]", maxJSONDepth) + `}`
	checkDecode(t, "depth past the limit", []byte(deeper))
}

// TestStatsFieldTable: statsFields names every obs.Stats field by its
// JSON tag, in declaration order, and each accessor reaches its field.
func TestStatsFieldTable(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	if typ.NumField() != len(statsFields) {
		t.Fatalf("obs.Stats has %d fields, statsFields %d", typ.NumField(), len(statsFields))
	}
	for i := 0; i < typ.NumField(); i++ {
		sf, f := typ.Field(i), statsFields[i]
		tag := sf.Tag.Get("json")
		if want := f.name + ",omitempty"; tag != want {
			t.Errorf("field %d (%s): tag %q, table says %q", i, sf.Name, tag, want)
		}
		var s Stats
		switch {
		case f.u != nil && sf.Type.Kind() == reflect.Uint64:
			*f.u(&s) = 1
		case f.f != nil && sf.Type.Kind() == reflect.Float64:
			*f.f(&s) = 1
		default:
			t.Fatalf("field %d (%s): table accessor does not match type %s", i, sf.Name, sf.Type)
		}
		v := reflect.ValueOf(s)
		for j := 0; j < v.NumField(); j++ {
			if set := !v.Field(j).IsZero(); set != (j == i) {
				t.Errorf("accessor %q: field %s set = %v", f.name, typ.Field(j).Name, set)
			}
		}
	}
}

// TestReportJSONEncodeAllocs: encoding a verdict-sized Report into a
// reused buffer allocates nothing, in either form.
func TestReportJSONEncodeAllocs(t *testing.T) {
	rep := verdictReports(t, 1)[0]
	buf := make([]byte, 0, 1<<17)
	for _, indent := range []bool{false, true} {
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if buf, err = rep.appendJSON(buf[:0], nil, indent); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("indent %v: %.1f allocations per encode, want 0", indent, allocs)
		}
	}
}

// FuzzReportJSON checks the codec against the oracle in both
// directions: a Report built from the input encodes to the oracle's
// bytes in both forms, and the input read as JSON is accepted exactly
// when the oracle accepts it, decoding to the oracle's Report.
func FuzzReportJSON(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		rep := randomReport(rng)
		rep.Stats.BytesPerLocation = 0.25
		data, err := rep.appendJSON(nil, rep.AddrName, i%2 == 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		`{"engine":"2d","tasks":3,"locations":1,"race_count":1,"races":[{"location":"0x10","kind":"read-write","current_task":0,"prior_root_task":2,"precise":true}],"memory_bytes":1696,"stats":{"reads":2,"bytes_per_location":1.5}}`,
		`{"engine":"2d","races":[{"location":"0x1","kind":"read-write"},{"kind":"write-write"}],"races":[{}],"races":[{},{}]}`,
		`{"ENGINE":"vc","\u0074asks":null,"x":[1,{"y":"\ud800"}]}`,
		"\x03\x01\x00\x10\x02\xff",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, "built", reportFromBytes(data))
		checkDecode(t, "input", data)
	})
}

// reportFromBytes builds a Report deterministically from fuzz input:
// every field, race and Stats counter draws its value from the bytes,
// and location names are raw byte strings (any UTF-8, valid or not).
func reportFromBytes(data []byte) *Report {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 {
		var v uint64
		for n := next() % 9; n > 0; n-- {
			v = v<<8 | uint64(next())
		}
		return v
	}
	r := &Report{Engine: Engine(next() % 8), Count: int(word()), Tasks: int(word()),
		Locations: int(word()), MemoryBytes: int(word())}
	for n := next() % 8; n > 0; n-- {
		r.Races = append(r.Races, Race{Loc: Addr(word()), Kind: core.AccessKind(next() % 4),
			Current: int(word()), Prior: int(word())})
	}
	if named := next(); named%2 == 1 {
		names := make([]string, 1+named%5)
		for i := range names {
			n := int(next() % 12)
			if n > len(data) {
				n = len(data)
			}
			names[i], data = string(data[:n]), data[n:]
		}
		r.AddrName = func(a Addr) string { return names[int(a%Addr(len(names)))] }
	}
	for i := range statsFields {
		if next()%2 == 0 {
			continue
		}
		if f := statsFields[i]; f.u != nil {
			*f.u(&r.Stats) = word()
		} else {
			*f.f(&r.Stats) = math.Float64frombits(word())
		}
	}
	return r
}
