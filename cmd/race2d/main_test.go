package main

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/server"

	race2d "repro"
)

// capture redirects stdout around fn and returns what was printed.
func capture(t *testing.T, fn func() int) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	code := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out, code
}

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.fj")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const figure2 = `
fork a { read r }
read r
fork c { join a }
write r
join c
`

func TestRacyProgramExitsOne(t *testing.T) {
	path := writeProgram(t, figure2)
	out, code := capture(t, func() int { return run([]string{path}) })
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"engine=2d", "races=1", `"r"`, "(precise)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCleanProgramExitsZero(t *testing.T) {
	path := writeProgram(t, "fork a { write x }\njoin a\nread x\n")
	out, code := capture(t, func() int { return run([]string{path}) })
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "no races detected") {
		t.Errorf("output: %s", out)
	}
}

func TestAllEnginesAndTruth(t *testing.T) {
	path := writeProgram(t, figure2)
	out, code := capture(t, func() int { return run([]string{"-all", "-truth", path}) })
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, want := range []string{"engine=2d", "engine=vc", "engine=fasttrack", "ground-truth: 1 racing pairs"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestEngineHelpListsEveryEngine: the -engine help and the usage
// comment list the same names, one per engine, and each parses back to
// the engine it names.
func TestEngineHelpListsEveryEngine(t *testing.T) {
	listed := strings.Split(strings.TrimPrefix(engineHelp, "detector engine: "), ", ")
	seen := make(map[race2d.Engine]bool)
	for _, name := range listed {
		e, err := race2d.ParseEngine(name)
		if err != nil || e.String() != name {
			t.Errorf("listed engine %q parses to %v, %v", name, e, err)
		}
		seen[e] = true
	}
	if n := int(race2d.EngineNaive) + 1; len(seen) != n || len(listed) != n {
		t.Errorf("-engine help lists %v, want each of the %d engines once", listed, n)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	usage := regexp.MustCompile(`\[-engine ([a-z0-9|]+)\]`).FindSubmatch(src)
	if usage == nil || string(usage[1]) != strings.Join(listed, "|") {
		t.Errorf("usage comment lists %q, want %q", usage, strings.Join(listed, "|"))
	}
}

func TestBadEngine(t *testing.T) {
	path := writeProgram(t, figure2)
	if _, code := capture(t, func() int { return run([]string{"-engine", "bogus", path}) }); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestMissingFile(t *testing.T) {
	if _, code := capture(t, func() int { return run([]string{"/nonexistent.fj"}) }); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestNoArgs(t *testing.T) {
	if _, code := capture(t, func() int { return run(nil) }); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestParseErrorExitsTwo(t *testing.T) {
	path := writeProgram(t, "fork {")
	if _, code := capture(t, func() int { return run([]string{path}) }); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestDisciplineViolationExitsTwo(t *testing.T) {
	path := writeProgram(t, "fork a { }\nfork b { }\njoin a\n")
	if _, code := capture(t, func() int { return run([]string{path}) }); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestRecordAndReplayTrace(t *testing.T) {
	prog := writeProgram(t, figure2)
	trace := filepath.Join(t.TempDir(), "run.trace")
	out, code := capture(t, func() int { return run([]string{"-record", trace, prog}) })
	if code != 1 {
		t.Fatalf("record run exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "trace recorded") {
		t.Fatalf("output: %s", out)
	}
	// Replay the binary trace under every engine.
	out, code = capture(t, func() int { return run([]string{"-all", "-truth", trace}) })
	if code != 1 {
		t.Fatalf("replay exit = %d\n%s", code, out)
	}
	for _, want := range []string{"trace:", "engine=2d", "ground-truth: 1 racing pairs"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}
}

func TestReplayCorruptTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, append(append([]byte{}, 'F', 'J', 'T', 1), 0xFF), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := capture(t, func() int { return run([]string{path}) }); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestJSONOutput(t *testing.T) {
	path := writeProgram(t, figure2)
	out, code := capture(t, func() int { return run([]string{"-json", path}) })
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	var rep map[string]any
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep["engine"] != "2d" || rep["race_count"].(float64) != 1 {
		t.Fatalf("JSON = %v", rep)
	}
	races := rep["races"].([]any)
	if races[0].(map[string]any)["location"] != "r" {
		t.Fatalf("JSON races = %v", races)
	}
}

// TestProgramCorpus runs every sample program in testdata with the
// expected verdict, under both the 2D engine and (via -all on the racy
// ones) the baselines.
func TestProgramCorpus(t *testing.T) {
	cases := map[string]int{ // file -> expected exit status
		"figure2.fj":     1,
		"pipeline3x4.fj": 0,
		"spawntree.fj":   1,
		"repeatchain.fj": 0,
		"stealing.fj":    0,
	}
	for file, want := range cases {
		path := filepath.Join("testdata", file)
		out, code := capture(t, func() int { return run([]string{"-truth", path}) })
		if code != want {
			t.Errorf("%s: exit = %d, want %d\n%s", file, code, want, out)
			continue
		}
		// Ground truth agrees with the verdict.
		if want == 0 && !strings.Contains(out, "ground-truth: 0 racing pairs") {
			t.Errorf("%s: ground truth disagrees:\n%s", file, out)
		}
		if want == 1 && strings.Contains(out, "ground-truth: 0 racing pairs") {
			t.Errorf("%s: ground truth found no race:\n%s", file, out)
		}
	}
}

func TestCorpusUnderAllEngines(t *testing.T) {
	// The SP-only program is safe for every engine including spbags and
	// sporder.
	path := filepath.Join("testdata", "spawntree.fj")
	out, code := capture(t, func() int { return run([]string{"-all", path}) })
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, engine := range []string{"engine=2d", "engine=vc", "engine=fasttrack", "engine=spbags"} {
		if !strings.Contains(out, engine) {
			t.Errorf("missing %s:\n%s", engine, out)
		}
	}
}

// startRaced runs an in-process raced server for the -remote tests.
func startRaced(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestRemoteMatchesLocalOutput is the acceptance bar at the CLI level:
// for every corpus program, `race2d -remote addr` output — JSON and
// text — is byte-identical to the in-process run.
func TestRemoteMatchesLocalOutput(t *testing.T) {
	addr := startRaced(t)
	files, err := filepath.Glob(filepath.Join("testdata", "*.fj"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, file := range files {
		for _, mode := range [][]string{{"-json"}, {"-stats"}} {
			local, localCode := capture(t, func() int { return run(append(append([]string{}, mode...), file)) })
			args := append(append([]string{"-remote", addr}, mode...), file)
			remote, remoteCode := capture(t, func() int { return run(args) })
			if localCode != remoteCode {
				t.Errorf("%s %v: exit %d local vs %d remote", file, mode, localCode, remoteCode)
			}
			if local != remote {
				t.Errorf("%s %v: remote output differs\nlocal:\n%s\nremote:\n%s", file, mode, local, remote)
			}
		}
	}
}

// TestRemoteTraceReplay streams a recorded binary trace to the server.
func TestRemoteTraceReplay(t *testing.T) {
	addr := startRaced(t)
	prog := writeProgram(t, figure2)
	trace := filepath.Join(t.TempDir(), "run.trace")
	if _, code := capture(t, func() int { return run([]string{"-record", trace, prog}) }); code != 1 {
		t.Fatalf("record exit = %d", code)
	}
	local, localCode := capture(t, func() int { return run([]string{trace}) })
	remote, remoteCode := capture(t, func() int { return run([]string{"-remote", addr, trace}) })
	if localCode != remoteCode || local != remote {
		t.Fatalf("trace replay differs (exit %d vs %d)\nlocal:\n%s\nremote:\n%s",
			localCode, remoteCode, local, remote)
	}
}

// TestRemoteUnreachable reports a clean error, not a hang.
func TestRemoteUnreachable(t *testing.T) {
	path := writeProgram(t, figure2)
	if _, code := capture(t, func() int {
		return run([]string{"-remote", "127.0.0.1:1", path})
	}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
