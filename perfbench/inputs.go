package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/workload"

	race2d "repro"
)

// traceCase is one generated input trace with its expected verdict: the
// JSON of an in-process replay that delivers events one at a time, as
// the server's consumer does.
type traceCase struct {
	class string
	tr    *fj.Trace
	want  []byte
}

func newCase(class string, tr *fj.Trace) (*traceCase, error) {
	d := race2d.NewEngineSink(race2d.Engine2D)
	tr.Replay(d)
	want, err := json.Marshal(d.Report())
	if err != nil {
		return nil, fmt.Errorf("expected verdict for %s: %w", class, err)
	}
	return &traceCase{class: class, tr: tr, want: want}, nil
}

// sizes scales the generated inputs; tiny is the self-check scale.
type sizes struct {
	pipelineItems  int // pipeline grid columns (16 stages each)
	forkJoinEvents int // length of the large fork-join trace
	verdictEvents  int // length of each verdicts trace
	verdictPool    int // distinct verdicts traces
	chainRecords   int // records pre-populated into each report log
}

var fullSizes = sizes{pipelineItems: 3600, forkJoinEvents: 1_000_000, verdictEvents: 4000, verdictPool: 192, chainRecords: 384}
var tinySizes = sizes{pipelineItems: 100, forkJoinEvents: 12000, verdictEvents: 4000, verdictPool: 6, chainRecords: 8}

// forkJoinTrace records random fork-join programs, each from its own
// seed, back to back on one root task until the trace holds at least
// target events, then runs tail (if any) on the root. One program's
// length is heavy-tailed (its root stops with probability 1/10 per
// step), so many short ones keep every seed's trace close to the same
// size.
func forkJoinTrace(rng *rand.Rand, target, ops, depth int, mix workload.Mix, tail func(*fj.Task)) (*fj.Trace, error) {
	tr := &fj.Trace{}
	_, err := fj.Run(func(t *fj.Task) {
		for len(tr.Events) < target {
			workload.ForkJoin{Seed: rng.Int63(), Ops: ops, MaxDepth: depth, Mix: mix}.Program()(t)
		}
		if tail != nil {
			tail(t)
		}
	}, tr, fj.Options{AutoJoin: true})
	return tr, err
}

// plantedBase is the address range of the planted races, clear of the
// random programs' locations.
const plantedBase core.Addr = 1 << 40

// plantRaces forks writers sibling tasks that each write the same locs
// locations: the siblings are logically parallel, so every write after
// the first races. The race list is the same for every seed, which
// keeps the size of the stream verdict — and the cost of fetching and
// rendering it — from varying with the seed the way random races do.
func plantRaces(writers, locs int) func(*fj.Task) {
	return func(t *fj.Task) {
		for w := 0; w < writers; w++ {
			t.Fork(func(c *fj.Task) {
				for l := 0; l < locs; l++ {
					c.Write(plantedBase + core.Addr(l))
				}
			})
		}
	}
}

// streamCases generates the two large traces `stream` and `replay`
// share: a 2D pipeline (the paper's non-series-parallel class, one
// planted race) and a random fork-join program, read-only but for a
// planted set of write-write races. The seed moves the pipeline's width
// and drives the fork-join programs.
func streamCases(seed int64, sz sizes) ([]*traceCase, error) {
	rng := rand.New(rand.NewSource(seed))
	items := sz.pipelineItems + rng.Intn(sz.pipelineItems/20+1)
	pipe := &fj.Trace{}
	if _, err := (workload.Pipeline{Stages: 16, Items: items, Payload: 4, Shared: true, RacySharing: true}).Run(pipe); err != nil {
		return nil, fmt.Errorf("pipeline trace: %w", err)
	}
	fork, err := forkJoinTrace(rng, sz.forkJoinEvents, 4000, 10,
		workload.Mix{Locs: 1 << 16, ReadFrac: 1, Block: 4}, plantRaces(16, 16))
	if err != nil {
		return nil, fmt.Errorf("fork-join trace: %w", err)
	}
	var cases []*traceCase
	for _, c := range []struct {
		class string
		tr    *fj.Trace
	}{{"pipeline", pipe}, {"forkjoin", fork}} {
		tc, err := newCase(c.class, c.tr)
		if err != nil {
			return nil, err
		}
		cases = append(cases, tc)
	}
	return cases, nil
}

// traceEvents reports the mean trace length per class.
func traceEvents(cases []*traceCase) map[string]int {
	sums, counts := map[string]int{}, map[string]int{}
	for _, tc := range cases {
		sums[tc.class] += len(tc.tr.Events)
		counts[tc.class]++
	}
	for c := range sums {
		sums[c] /= counts[c]
	}
	return sums
}

// verdictCases generates the pool of short racy fork-join traces the
// `verdicts` sessions cycle through, each from its own seed, so every
// Report carries its own race list.
func verdictCases(seed int64, sz sizes) ([]*traceCase, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	cases := make([]*traceCase, 0, sz.verdictPool)
	for i := 0; i < sz.verdictPool; i++ {
		tr, err := forkJoinTrace(rng, sz.verdictEvents, 400, 8, workload.Mix{Locs: 128, ReadFrac: 0.8, Block: 2}, nil)
		if err != nil {
			return nil, fmt.Errorf("verdicts trace %d: %w", i, err)
		}
		tc, err := newCase("forkjoin", tr)
		if err != nil {
			return nil, err
		}
		cases = append(cases, tc)
	}
	return cases, nil
}
