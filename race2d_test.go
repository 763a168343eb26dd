package race2d

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/fj"
)

func figure2(t *Task) {
	const r = Addr(0x10)
	a := t.Fork(func(a *Task) { a.Read(r) })
	t.Read(r)
	c := t.Fork(func(c *Task) { c.Join(a) })
	t.Write(r)
	t.Join(c)
}

func TestDetectFigure2(t *testing.T) {
	rep, err := Detect(figure2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Racy() || rep.Count != 1 || rep.Tasks != 3 || rep.Locations != 1 {
		t.Fatalf("report = %+v", rep)
	}
	s := rep.String()
	for _, want := range []string{"engine=2d", "races=1", "(precise)"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string %q missing %q", s, want)
		}
	}
}

func TestAllEnginesAgreeOnFigure2(t *testing.T) {
	for _, e := range []Engine{Engine2D, EngineVC, EngineFastTrack} {
		rep, err := Detect(figure2, WithEngine(e))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if !rep.Racy() {
			t.Errorf("engine %v missed the Figure 2 race", e)
		}
		if rep.Engine != e {
			t.Errorf("report engine = %v, want %v", rep.Engine, e)
		}
	}
}

func TestEngineNames(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Engine
	}{
		{"2d", Engine2D}, {"VC", EngineVC}, {"fasttrack", EngineFastTrack},
		{"sp-bags", EngineSPBags}, {"djit", EngineVC}, {"ft", EngineFastTrack},
		{"sporder", EngineSPOrder}, {"eh", EngineSPOrder}, {"naive", EngineNaive},
	} {
		got, err := ParseEngine(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseEngine(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseEngine("nonsense"); err == nil {
		t.Fatal("ParseEngine accepted nonsense")
	}
	if Engine2D.String() != "2d" || EngineSPBags.String() != "spbags" ||
		EngineSPOrder.String() != "sporder" || Engine(42).String() != "Engine(42)" {
		t.Fatal("Engine strings wrong")
	}
}

func TestDetectSpawnSync(t *testing.T) {
	rep, err := DetectSpawnSync(func(p *Proc) {
		p.Spawn(func(c *Proc) { c.Write(1) })
		p.Write(1)
		p.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Racy() {
		t.Fatal("spawn race missed")
	}
}

func TestDetectAsyncFinish(t *testing.T) {
	rep, err := DetectAsyncFinish(func(a *Act) {
		a.Finish(func(f *Act) {
			f.Async(func(x *Act) { x.Write(1) })
		})
		a.Write(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Racy() {
		t.Fatalf("finish-ordered writes flagged: %v", rep.Races)
	}
}

func TestDetectPipeline(t *testing.T) {
	rep, err := DetectPipeline(Pipeline{
		Stages: 3,
		Items:  4,
		Body: func(c *Cell) {
			c.Read(Addr(100 + c.Stage))
			c.Write(Addr(100 + c.Stage))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Racy() {
		t.Fatalf("pipeline stage state flagged: %v", rep.Races)
	}
	if rep.Tasks != 3*4+1 {
		t.Fatalf("tasks = %d", rep.Tasks)
	}
}

func TestDetectGoroutines(t *testing.T) {
	rep, err := DetectGoroutines(func(t *GoTask) {
		h := t.Go(func(c *GoTask) { c.Write(1) })
		t.Write(1)
		t.Join(h)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Racy() {
		t.Fatal("goroutine race missed")
	}
}

func TestDetectSourceAddrName(t *testing.T) {
	const src = `
fork a { read r }
read r
fork c { join a }
write r
join c
`
	rep, err := DetectSource(strings.NewReader(src), WithEngine(Engine2D))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Racy() {
		t.Fatal("program race missed")
	}
	if rep.AddrName(rep.Races[0].Loc) != "r" {
		t.Fatalf("race location = %q", rep.AddrName(rep.Races[0].Loc))
	}
}

func TestDetectSourceParseError(t *testing.T) {
	if _, err := DetectSource(strings.NewReader("fork {"), WithEngine(Engine2D)); err == nil {
		t.Fatal("parse error swallowed")
	}
}

func TestStructureViolationSurfaces(t *testing.T) {
	_, err := Detect(func(t *Task) {
		a := t.Fork(func(*Task) {})
		t.Fork(func(*Task) {})
		t.Join(a)
	})
	if err == nil {
		t.Fatal("structure violation not reported")
	}
}

func TestGroundTruthHelper(t *testing.T) {
	var tr Trace
	_, err := fj.Run(figure2, &tr, fj.Options{AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if !GroundTruth(&tr) {
		t.Fatal("ground truth missed the race")
	}
}

func TestNewEngineSinkStreams(t *testing.T) {
	s := NewEngineSink(EngineVC)
	var tr Trace
	_, err := fj.Run(figure2, &tr, fj.Options{AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Replay(s)
	if !s.Racy() || s.Count() == 0 || s.Locations() != 1 || s.MemoryBytes() <= 0 {
		t.Fatal("engine sink surface broken")
	}
}

func TestReportJSON(t *testing.T) {
	rep, err := Detect(figure2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"engine": "2d"`, `"race_count": 1`, `"precise": true`, `"0x10"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %q:\n%s", want, data)
		}
	}
	var buf strings.Builder
	if err := rep.WriteJSON(&buf, func(Addr) string { return "shared" }); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"location": "shared"`) {
		t.Fatalf("WriteJSON name resolver ignored:\n%s", buf.String())
	}
	var round map[string]any
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("JSON invalid: %v", err)
	}
}

func TestDetectPipelineWhile(t *testing.T) {
	rep, err := DetectPipelineWhile(2, func(item int) bool { return item < 5 }, func(c *Cell) {
		c.Write(Addr(900 + c.Stage))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 2*5+1 {
		t.Fatalf("tasks = %d", rep.Tasks)
	}
	if rep.Racy() {
		t.Fatalf("stage-ordered writes flagged: %v", rep.Races)
	}
}

func TestRunParallel(t *testing.T) {
	var result int
	tasks, err := RunParallel(func(m *PTask) {
		var a, b int
		h := m.Fork(func(*PTask) { a = 20 })
		b = 22
		m.Join(h)
		result = a + b
	})
	if err != nil {
		t.Fatal(err)
	}
	if tasks != 2 || result != 42 {
		t.Fatalf("tasks=%d result=%d", tasks, result)
	}
}

func TestEngineNaiveOnFigure2(t *testing.T) {
	rep, err := Detect(figure2, WithEngine(EngineNaive))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Racy() {
		t.Fatal("naive engine missed the race")
	}
}

func TestDetectFutures(t *testing.T) {
	rep, err := DetectFutures(func(c *FutureCtx) {
		f := c.Spawn(func(fc *FutureCtx) Value {
			fc.Write(1)
			return "done"
		})
		if c.Get(f).(string) != "done" {
			panic("wrong value")
		}
		c.Read(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Racy() || rep.Tasks != 2 {
		t.Fatalf("report = %+v", rep)
	}
}
