// Command bench2d runs the repository's experiments (DESIGN.md §3) and
// prints the measured tables recorded in EXPERIMENTS.md. The paper has no
// empirical section; these tables regenerate its quantitative *claims*:
// Theorem 3 (near-linear suprema), Theorem 5 (Θ(1) space per location,
// near-constant amortized time) and the Section 5 workload classes.
//
// Usage:
//
//	bench2d [-e all|1-10|13|17|bench] [-quick]
//	        [-parallel N] [-json file] [-cpuprofile file] [-memprofile file]
//
// `-e bench` runs the detector × workload replay matrix sharded across
// -parallel worker goroutines (default GOMAXPROCS; each trace's detector
// stays serial, as the algorithm requires) and lands the measured
// ns/op, B/op and allocs/op in -json (default BENCH_race2d.json),
// keeping the sections other experiments wrote there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/baseline/bruteforce"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/order"
	"repro/internal/traversal"
	"repro/internal/workload"

	race2d "repro"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench2d", flag.ContinueOnError)
	exp := fs.String("e", "all", "experiment to run: "+experimentList())
	quick := fs.Bool("quick", false, "smaller sweeps (for smoke tests)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "replay worker goroutines for -e bench")
	jsonPath := fs.String("json", "BENCH_race2d.json", "output file for -e bench results (empty disables)")
	checkAllocs := fs.Bool("checkallocs", false, "fail -e bench when a 2D-family cell's steady-state replay allocates")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench2d: cpuprofile:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench2d: cpuprofile:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench2d: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench2d: memprofile:", err)
			}
		}()
	}
	if *exp == "bench" {
		return eBench(*quick, *parallel, *jsonPath, *checkAllocs)
	}
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran = true
		// A standalone run of an experiment with cells lands them in the
		// JSON document in place, without a full -e bench run.
		jp := *jsonPath
		if *exp == "all" {
			jp = ""
		}
		if code := e.run(*quick, jp); code != 0 {
			return code
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "bench2d: unknown experiment %q (want %s)\n", *exp, experimentList())
		return 2
	}
	return 0
}

// experiments are the -e ids besides bench, in the order -e all runs
// them. run prints the experiment's table; one with cells lands them
// under its key in jsonPath when that is not empty.
var experiments = []struct {
	id  string
	run func(quick bool, jsonPath string) int
}{
	{"1", tableOnly(e1)},
	{"2", tableOnly(e2)},
	{"3", tableOnly(e3)},
	{"4", tableOnly(e4)},
	{"5", tableOnly(e5)},
	{"6", tableOnly(e6)},
	{"7", tableOnly(e7)},
	{"8", tableOnly(func(quick bool) { e8(quick); e8b(quick) })},
	{"9", tableOnly(e9)},
	{"10", tableOnly(func(bool) { e10() })},
	{"13", tableOnly(func(quick bool) { e13(quick) })},
	{"17", func(quick bool, jsonPath string) int {
		cells, code := e17(quick)
		if code != 0 {
			return code
		}
		return landCells(jsonPath, "compress", cells)
	}},
}

// tableOnly adapts an experiment that only prints its table.
func tableOnly(e func(quick bool)) func(bool, string) int {
	return func(quick bool, _ string) int { e(quick); return 0 }
}

// experimentList renders the valid -e values for the usage string and
// the unknown-experiment message.
func experimentList() string {
	ids := []string{"all"}
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	return strings.Join(ids, ", ") + " or bench"
}

// landCells merges cells under key in jsonPath, unless that is empty,
// and returns the exit code.
func landCells(jsonPath, key string, cells any) int {
	if jsonPath == "" {
		return 0
	}
	if err := mergeCells(jsonPath, map[string]any{key: cells}); err != nil {
		fmt.Fprintln(os.Stderr, "bench2d:", err)
		return 1
	}
	return 0
}

// mergeCells lands each section (a top-level key and its value) in the
// JSON document at path, keeping every other key, and creates the
// document when it is absent. Every experiment that writes cells lands
// them this way, so no run drops another experiment's section.
func mergeCells(path string, sections map[string]any) error {
	doc := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("bench: %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for k, v := range sections {
		doc[k] = v
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

func table(header string) *tabwriter.Writer {
	fmt.Println(header)
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// e2 regenerates Theorem 3: m+n union-find operations answer m supremum
// queries, so total time grows (near-)linearly and per-operation cost is
// flat (inverse Ackermann).
func e2(quick bool) {
	sizes := []int{1 << 10, 1 << 13, 1 << 16, 1 << 19}
	if quick {
		sizes = []int{1 << 8, 1 << 10}
	}
	w := table("\nE2 (Theorem 3): suprema queries along a non-separating traversal")
	fmt.Fprintln(w, "n\tm\ttotal\tns/query\tfinds\tunions\tpath-steps\tuf-steps/query")
	for _, n := range sizes {
		const rows = 8
		g := order.Grid(rows, n/rows)
		tr, err := traversal.NonSeparating(g)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(1))
		start := time.Now()
		walker := core.NewWalker(g.N())
		queries := 0
		var visited []int
		for _, it := range tr {
			walker.Feed(it)
			if it.Kind != traversal.Loop {
				continue
			}
			visited = append(visited, it.S)
			for q := 0; q < 4; q++ {
				_ = walker.Sup(visited[rng.Intn(len(visited))], it.S)
				queries++
			}
		}
		elapsed := time.Since(start)
		st := walker.Stats()
		if err := walker.CheckAccounting(); err != nil {
			panic(fmt.Sprintf("E2: live accounting violated: %v", err))
		}
		fmt.Fprintf(w, "%d\t%d\t%v\t%.1f\t%d\t%d\t%d\t%.2f\n",
			g.N(), queries, elapsed.Round(time.Microsecond),
			float64(elapsed.Nanoseconds())/float64(queries), st.Finds, st.Unions,
			st.PathSteps, float64(st.Finds+st.Unions+st.PathSteps)/float64(queries))
	}
	w.Flush()
}

// e4 regenerates Theorem 5's space claim: bytes of per-location detector
// state as the task count grows, for the 2D detector vs the Θ(n) family.
func e4(quick bool) {
	sizes := []int{16, 128, 1024, 4096}
	if quick {
		sizes = []int{16, 64}
	}
	w := table("\nE4 (Theorem 5): per-location state (bytes) vs task count, read-shared workload")
	fmt.Fprintln(w, "tasks\t2d\tvc\tfasttrack\tnaive")
	for _, tasks := range sizes {
		var tr fj.Trace
		if _, err := (workload.SharedReadFanout{Tasks: tasks, Locs: 8}).Run(&tr); err != nil {
			panic(err)
		}
		row := fmt.Sprintf("%d", tasks)
		for _, e := range []race2d.Engine{race2d.Engine2D, race2d.EngineVC, race2d.EngineFastTrack, race2d.EngineNaive} {
			d := race2d.NewEngineSink(e)
			for _, ev := range tr.Events {
				if ev.Kind == fj.EvWrite {
					continue // keep the read-shared steady state
				}
				d.Event(ev)
			}
			row += fmt.Sprintf("\t%.0f", float64(locationBytes(d))/float64(d.Locations()))
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()
}

type locBytes interface{ LocationBytes() int }
type perLocBytes interface{ BytesPerLocation() int }

func locationBytes(d interface {
	Locations() int
	MemoryBytes() int
}) int {
	// StreamDetector wraps the engine; introspect the engine itself.
	if u, ok := d.(interface{ Unwrap() any }); ok {
		if lb, ok := u.Unwrap().(locBytes); ok {
			return lb.LocationBytes()
		}
		if pl, ok := u.Unwrap().(perLocBytes); ok {
			return pl.BytesPerLocation() * d.Locations()
		}
	}
	if lb, ok := d.(locBytes); ok {
		return lb.LocationBytes()
	}
	if pl, ok := d.(perLocBytes); ok {
		return pl.BytesPerLocation() * d.Locations()
	}
	// The 2D engine sink: constant 8 bytes per location by construction.
	return 8 * d.Locations()
}

// e5 regenerates Theorem 5's time claim: amortized cost per memory
// operation stays flat as the operation count grows.
func e5(quick bool) {
	sizes := []int{1e3, 1e4, 1e5}
	if !quick {
		sizes = append(sizes, 1e6)
	}
	w := table("\nE5 (Theorem 5): amortized detector time per memory operation")
	fmt.Fprintln(w, "ops\ttasks\ttotal\tns/memop")
	for _, items := range sizes {
		wl := workload.Pipeline{Stages: 8, Items: items / 8 / 4, Shared: true}
		if wl.Items < 1 {
			wl.Items = 1
		}
		var tr fj.Trace
		tasks, err := wl.Run(&tr)
		if err != nil {
			panic(err)
		}
		ops := 0
		for _, ev := range tr.Events {
			if ev.Kind == fj.EvRead || ev.Kind == fj.EvWrite {
				ops++
			}
		}
		d := fj.NewDetectorSink(tasks)
		start := time.Now()
		tr.Replay(d)
		elapsed := time.Since(start)
		fmt.Fprintf(w, "%d\t%d\t%v\t%.1f\n", ops, tasks,
			elapsed.Round(time.Microsecond),
			float64(elapsed.Nanoseconds())/float64(ops))
	}
	w.Flush()
}

// e7 regenerates the soundness/precision claim on random programs.
func e7(quick bool) {
	count := 500
	if quick {
		count = 50
	}
	agree, racy := 0, 0
	for seed := 0; seed < count; seed++ {
		wl := workload.ForkJoin{Seed: int64(seed), Ops: 60, MaxDepth: 5,
			Mix: workload.Mix{Locs: 4, ReadFrac: 0.55}}
		var tr fj.Trace
		ds := fj.NewDetectorSink(16)
		if _, err := wl.Run(fj.MultiSink{&tr, ds}); err != nil {
			panic(err)
		}
		truth := bruteforce.Analyze(&tr).Racy()
		if truth == ds.Racy() {
			agree++
		}
		if truth {
			racy++
		}
	}
	fmt.Printf("\nE7 (soundness/precision): %d random programs, %d racy, detector agreed on %d/%d\n",
		count, racy, agree, count)
}

// e8 regenerates the pipeline claim: the detector handles pipeline
// parallelism, within a small constant of uninstrumented execution and
// competitive with the Θ(n) family.
func e8(quick bool) {
	items := 1500
	if quick {
		items = 500
	}
	wl := workload.Pipeline{Stages: 16, Items: items, Shared: true}
	var tr fj.Trace
	if _, err := wl.Run(&tr); err != nil {
		panic(err)
	}
	w := table(fmt.Sprintf("\nE8 (Section 5): pipeline %d×%d, %d events", 16, items, len(tr.Events)))
	fmt.Fprintln(w, "engine\ttotal\tMevents/s\tstate bytes")
	start := time.Now()
	tr.Replay(fj.NullSink{})
	base := time.Since(start)
	fmt.Fprintf(w, "none\t%v\t%.1f\t0\n", base.Round(time.Microsecond),
		float64(len(tr.Events))/base.Seconds()/1e6)
	for _, e := range []race2d.Engine{race2d.Engine2D, race2d.EngineVC, race2d.EngineFastTrack} {
		d := race2d.NewEngineSink(e)
		start := time.Now()
		tr.Replay(d)
		elapsed := time.Since(start)
		fmt.Fprintf(w, "%s\t%v\t%.1f\t%d\n", e, elapsed.Round(time.Microsecond),
			float64(len(tr.Events))/elapsed.Seconds()/1e6, d.MemoryBytes())
	}
	w.Flush()
}

// e9 regenerates the generalization claim: on series-parallel programs
// the 2D detector is competitive with SP-bags, which cannot handle the
// richer 2D class at all.
func e9(quick bool) {
	ops := 50000
	if quick {
		ops = 20000
	}
	wl := workload.SpawnSync{Seed: 11, Ops: ops, MaxDepth: 10,
		Mix: workload.Mix{Locs: 512, ReadFrac: 0.7}}
	var tr fj.Trace
	tasks, err := wl.Run(&tr)
	if err != nil {
		panic(err)
	}
	w := table(fmt.Sprintf("\nE9 (generalization): spawn-sync workload, %d tasks, %d events", tasks, len(tr.Events)))
	fmt.Fprintln(w, "engine\ttotal\tMevents/s\tstate bytes\tracy")
	for _, e := range []race2d.Engine{race2d.Engine2D, race2d.EngineSPBags, race2d.EngineSPOrder, race2d.EngineVC, race2d.EngineFastTrack} {
		d := race2d.NewEngineSink(e)
		start := time.Now()
		tr.Replay(d)
		elapsed := time.Since(start)
		fmt.Fprintf(w, "%s\t%v\t%.1f\t%d\t%v\n", e, elapsed.Round(time.Microsecond),
			float64(len(tr.Events))/elapsed.Seconds()/1e6, d.MemoryBytes(), d.Racy())
	}
	w.Flush()
}

// e1 validates Theorem 1 exhaustively on grids: every valid query along
// the canonical non-separating traversal must equal the brute-force
// supremum.
func e1(quick bool) {
	dims := [][2]int{{3, 4}, {5, 5}, {6, 8}}
	if quick {
		dims = [][2]int{{3, 3}}
	}
	checked, mismatches := 0, 0
	for _, dim := range dims {
		g := order.Grid(dim[0], dim[1])
		tr, err := traversal.NonSeparating(g)
		if err != nil {
			panic(err)
		}
		p := order.NewPoset(g)
		w := core.NewWalker(g.N())
		valid := make([]bool, g.N())
		mark := func(it traversal.Item) {
			switch it.Kind {
			case traversal.Loop:
				valid[it.S] = true
			case traversal.LastArc:
				valid[it.S] = true
				valid[it.T] = true
			}
		}
		for _, it := range tr {
			w.Feed(it)
			mark(it)
			if it.Kind != traversal.Loop {
				continue
			}
			for x := 0; x < g.N(); x++ {
				if !valid[x] {
					continue
				}
				checked++
				want, _ := p.Sup(x, it.S)
				if w.Sup(x, it.S) != want {
					mismatches++
				}
			}
		}
	}
	fmt.Printf("\nE1 (Theorems 1-2): %d exact supremum queries on grid lattices, %d mismatches\n",
		checked, mismatches)
}

// e3 validates Theorem 4's condition (6) along delayed traversals.
func e3(quick bool) {
	dims := [][2]int{{3, 4}, {5, 5}, {6, 8}}
	if quick {
		dims = [][2]int{{3, 3}}
	}
	checked, violations := 0, 0
	for _, dim := range dims {
		g := order.Grid(dim[0], dim[1])
		tr, err := traversal.NonSeparating(g)
		if err != nil {
			panic(err)
		}
		p := order.NewPoset(g)
		dt := traversal.Delay(tr, p.R, g.N())
		w := core.NewWalker(g.N())
		visited := make([]bool, g.N())
		for _, it := range dt {
			w.Feed(it)
			if it.Kind != traversal.Loop {
				continue
			}
			for x := 0; x < g.N(); x++ {
				if !visited[x] {
					continue
				}
				checked++
				if (w.Sup(x, it.S) == it.S) != p.Leq(x, it.S) {
					violations++
				}
			}
			visited[it.S] = true
		}
	}
	fmt.Printf("E3 (Theorem 4): %d relaxed queries along delayed traversals, %d condition-(6) violations\n",
		checked, violations)
}

// e6 validates Theorem 6 on random restricted fork-join programs.
func e6(quick bool) {
	count := 200
	if quick {
		count = 30
	}
	lattices, realized, serialOrder := 0, 0, 0
	for seed := 0; seed < count; seed++ {
		b := fj.NewGraphBuilder()
		wl := workload.ForkJoin{Seed: int64(seed), Ops: 30, MaxDepth: 4,
			Mix: workload.Mix{Locs: 3, ReadFrac: 0.5}}
		if _, err := wl.Run(b); err != nil {
			panic(err)
		}
		g := b.Graph()
		p := order.NewPoset(g)
		if p.IsLattice() == nil {
			lattices++
		}
		left, err1 := traversal.NonSeparating(g)
		right, err2 := traversal.RightToLeft(g)
		if err1 == nil && err2 == nil {
			real := order.Realizer{L1: left.VertexOrder(), L2: right.VertexOrder()}
			if real.Verify(p) == nil {
				realized++
			}
			inOrder := true
			for i, v := range left.VertexOrder() {
				if v != i {
					inOrder = false
					break
				}
			}
			if inOrder {
				serialOrder++
			}
		}
	}
	fmt.Printf("E6 (Theorem 6): %d random restricted programs: %d lattices, %d 2-realizers verified, %d traversals equal the serial execution order\n",
		count, lattices, realized, serialOrder)
}

// e10 prints the paper's Figure 4 and Figure 7 sequences next to the
// generator's output.
func e10() {
	g := traversal.Figure3()
	tr, err := traversal.NonSeparating(g)
	if err != nil {
		panic(err)
	}
	dt := traversal.Delay(tr, order.NewPoset(g).R, g.N())
	fmt.Println("\nE10 (Figures 3/4/7): generated traversals in paper numbering")
	fmt.Printf("  Figure 4: %s (golden match: %v)\n", paperNotation(tr), traversal.Equal(tr, traversal.Figure4Want()))
	fmt.Printf("  Figure 7: %s (golden match: %v)\n", paperNotation(dt), traversal.Equal(dt, traversal.Figure7Want()))
}

// paperNotation renders a traversal with the figure's 1-based vertices.
func paperNotation(t traversal.T) string {
	s := ""
	for _, it := range t {
		switch it.Kind {
		case traversal.Loop:
			s += fmt.Sprintf("(%d,%d)", it.S+1, it.S+1)
		case traversal.StopArc:
			s += fmt.Sprintf("(%d,x)", it.S+1)
		default:
			s += fmt.Sprintf("(%d,%d)", it.S+1, it.T+1)
		}
	}
	return s
}

// e8b runs the application-shaped pipelines (synthetic equivalents of
// the PARSEC apps Lee et al. evaluate on — dedup, ferret, x264) across
// engines.
func e8b(quick bool) {
	size := 1000
	if quick {
		size = 200
	}
	apps := []struct {
		name string
		run  func(fj.Sink) (int, error)
	}{
		{"dedup", workload.Dedup{Chunks: size, DupEvery: 4}.Run},
		{"ferret", workload.Ferret{Queries: size, IndexShards: 8}.Run},
		{"encoder", workload.Encoder{Rows: 24, Cols: size / 8}.Run},
	}
	w := table("\nE8b (Section 5): application-shaped pipelines (dedup / ferret / x264-like)")
	fmt.Fprintln(w, "app\tevents\tengine\ttotal\tMevents/s\tstate bytes\tracy")
	for _, app := range apps {
		var tr fj.Trace
		if _, err := app.run(&tr); err != nil {
			panic(err)
		}
		for _, e := range []race2d.Engine{race2d.Engine2D, race2d.EngineVC, race2d.EngineFastTrack} {
			d := race2d.NewEngineSink(e)
			start := time.Now()
			tr.Replay(d)
			elapsed := time.Since(start)
			fmt.Fprintf(w, "%s\t%d\t%s\t%v\t%.1f\t%d\t%v\n", app.name, len(tr.Events), e,
				elapsed.Round(time.Microsecond),
				float64(len(tr.Events))/elapsed.Seconds()/1e6, d.MemoryBytes(), d.Racy())
		}
	}
	w.Flush()
}
