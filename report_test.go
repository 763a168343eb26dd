package race2d

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
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
