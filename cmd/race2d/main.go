// Command race2d runs a structured fork-join program (see internal/prog
// for the textual syntax) under a dynamic race detector and reports the
// races it finds.
//
// Usage:
//
//	race2d [-engine 2d|vc|fasttrack|spbags|sporder|naive] [-all] [-truth]
//	       [-remote addr[,addr...]] [-auth name:key] [-fetch token]
//	       program.fj
//
// With -remote the program still executes locally, but its event stream
// is shipped to a raced server (cmd/raced) and the verdict comes back
// from the server's engine; output is identical to the in-process path.
// -auth presents a tenant credential to servers started with
// -tenant-keys. Remote runs note their resume token on stderr; against
// a raced with -store-dir, -fetch (with that hex token) retrieves the
// persisted verdict instead of re-detecting — the program still
// executes locally so task counts and location names render, and the
// output is byte-identical to the original run's.
//
// Exit status: 0 when race-free, 1 when races were detected, 2 on error.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/client"
	"repro/internal/baseline/bruteforce"
	"repro/internal/fj"
	"repro/internal/prog"

	race2d "repro"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// engineHelp is the -engine flag's help: every engine ParseEngine
// accepts, by its canonical name.
const engineHelp = "detector engine: 2d, vc, fasttrack, spbags, sporder, naive"

func run(args []string) int {
	fs := flag.NewFlagSet("race2d", flag.ContinueOnError)
	engineName := fs.String("engine", "2d", engineHelp)
	all := fs.Bool("all", false, "run every engine and compare verdicts")
	truth := fs.Bool("truth", false, "also run the exhaustive ground-truth oracle")
	record := fs.String("record", "", "write the execution's binary trace to this file")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of text")
	traceStats := fs.Bool("stats", false, "print trace shape and per-engine operation-count statistics")
	viz := fs.Bool("viz", false, "render the task line's evolution (small programs)")
	remote := fs.String("remote", "", "raced server address(es), comma-separated; detection runs remotely over the wire protocol, extra addresses are failover endpoints (and fetch fallbacks)")
	auth := fs.String("auth", "", "tenant credential name:key for remote runs against a -tenant-keys server")
	fetch := fs.String("fetch", "", "retrieve the persisted report under this resume token (hex) instead of detecting; requires -remote")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: race2d [flags] (program.fj | trace.bin)")
		fs.PrintDefaults()
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "race2d:", err)
		return 2
	}
	if *fetch != "" {
		return runFetch(data, fs.Arg(0), *fetch, *remote, *auth, *engineName, *jsonOut, *traceStats)
	}
	// Binary traces (recorded with -record) are replayed directly; any
	// other input is parsed as a program.
	if len(data) >= 4 && [4]byte(data[:4]) == fj.TraceMagic {
		return runTrace(data, *engineName, *remote, *all, *truth, *traceStats, *auth)
	}
	p, err := prog.Parse(bytes.NewReader(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, "race2d:", err)
		return 2
	}

	engines := []race2d.Engine{}
	if *all {
		engines = []race2d.Engine{race2d.Engine2D, race2d.EngineVC, race2d.EngineFastTrack, race2d.EngineSPBags}
	} else {
		e, err := race2d.ParseEngine(*engineName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "race2d:", err)
			return 2
		}
		engines = append(engines, e)
	}

	stats := p.Stats()
	if !*jsonOut {
		fmt.Printf("program: %s (%d forks, %d joins, %d reads, %d writes, locations %s)\n",
			fs.Arg(0), stats.Forks, stats.Joins, stats.Reads, stats.Writes,
			strings.Join(stats.Locations, " "))
	}

	racy := false
	var trace fj.Trace
	for i, e := range engines {
		// Both paths produce a *Report; everything below prints from it,
		// so local and remote verdicts render identically.
		var rep *race2d.Report
		var res *prog.Result
		if *remote != "" {
			rep, res, err = execRemote(p, *remote, e, i == 0, &trace, *auth)
		} else {
			d := race2d.NewEngineSink(e)
			sink := race2d.Sink(d)
			if i == 0 {
				sink = fj.MultiSink{&trace, d}
			}
			res, err = prog.Exec(p, sink)
			if err == nil {
				rep = d.Report()
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "race2d:", err)
			return 2
		}
		rep.Tasks = res.Tasks
		rep.AddrName = res.LocName
		racy = racy || rep.Count > 0
		if *jsonOut {
			if err := rep.WriteJSON(os.Stdout, nil); err != nil {
				fmt.Fprintln(os.Stderr, "race2d:", err)
				return 2
			}
			continue
		}
		printReport(e, rep, res.LocName, *traceStats)
	}
	if *truth && !*jsonOut {
		rep := bruteforce.Analyze(&trace)
		fmt.Printf("ground-truth: %d racing pairs over %d operations\n", len(rep.Pairs), rep.Ops)
	}
	if *traceStats && !*jsonOut {
		fmt.Println("trace:", trace.Stats())
	}
	if *viz && !*jsonOut {
		fmt.Print(fj.RenderLine(&trace))
	}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "race2d:", err)
			return 2
		}
		if err := trace.Encode(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "race2d:", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "race2d:", err)
			return 2
		}
		if !*jsonOut {
			fmt.Printf("trace recorded: %s (%d events)\n", *record, len(trace.Events))
		}
	}
	if racy {
		return 1
	}
	if !*jsonOut {
		fmt.Println("no races detected")
	}
	return 0
}

// printReport renders one engine's verdict as text.
func printReport(e race2d.Engine, rep *race2d.Report, locName func(race2d.Addr) string, stats bool) {
	fmt.Printf("engine=%-9s tasks=%-5d locations=%-4d races=%d\n",
		e, rep.Tasks, rep.Locations, rep.Count)
	if stats {
		fmt.Printf("  ops: %s\n", rep.Stats)
	}
	for j, r := range rep.Races {
		precise := ""
		if j == 0 {
			precise = " (precise)"
		}
		fmt.Printf("  #%d %s race on %q by task %d vs prior rooted at task %d%s\n",
			j+1, kindName(r), locName(r.Loc), r.Current, r.Prior, precise)
	}
}

// remoteOptions is the session configuration for every race2d remote
// run, returned with the primary address of the -remote list: RetainAll
// keeps the whole stream replayable, so the verdict survives not just
// dropped connections but a raced restart that forgot the resume token
// (the stream replays into a fresh session).
func remoteOptions(remote string, e race2d.Engine, auth string) (string, []client.Option) {
	addr, opts := connectOptions(remote, auth)
	return addr, append(opts, client.WithEngine(e.String()), client.WithRetainAll())
}

// connectOptions splits a -remote list into its primary address and the
// options every remote call shares: the -auth credential and the
// fallback endpoints. Dial and Fetch rotate through the fallbacks, so a
// dead backend's report is retrieved from a replicating follower.
func connectOptions(remote, auth string) (string, []client.Option) {
	addr, extras := splitRemote(remote)
	var opts []client.Option
	if auth != "" {
		opts = append(opts, client.WithAuthToken(auth))
	}
	if len(extras) > 0 {
		opts = append(opts, client.WithEndpoints(extras...))
	}
	return addr, opts
}

// splitRemote splits a comma-separated -remote list into the primary
// address and the fallback endpoints behind it.
func splitRemote(spec string) (string, []string) {
	var addrs []string
	for _, p := range strings.Split(spec, ",") {
		if p = strings.TrimSpace(p); p != "" {
			addrs = append(addrs, p)
		}
	}
	if len(addrs) == 0 {
		return "", nil
	}
	return addrs[0], addrs[1:]
}

// noteRecovery reports transport trouble the session rode out and what
// wire compression achieved, on stderr so piped verdict output stays
// byte-identical to a clean run. It also notes the session's resume
// token: against a raced with -store-dir that token retrieves the
// persisted verdict later (-fetch), even across a server restart.
func noteRecovery(sess *client.Session) {
	if tok := sess.Token(); tok != 0 {
		fmt.Fprintf(os.Stderr, "race2d: note: resume token %016x\n", tok)
	}
	st := sess.Stats()
	if st.Reconnects > 0 {
		fmt.Fprintf(os.Stderr,
			"race2d: note: recovered from %d disconnect(s) (%d batches resent, %d heartbeats missed)\n",
			st.Reconnects, st.Resends, st.HeartbeatsMissed)
	}
	if st.WireBlocks > 0 {
		fmt.Fprintf(os.Stderr,
			"race2d: note: wire compression %d block(s), %d -> %d bytes (%.1fx)\n",
			st.WireBlocks, st.WireBytesRaw, st.WireBytesBlocks, st.CompressRatio())
	}
}

// execRemote executes p locally but streams its events to a raced
// server; the Report comes back from the server's engine. When the
// server drains mid-stream the partial report is used, with a warning.
func execRemote(p *prog.Program, remote string, e race2d.Engine, recordTrace bool, trace *fj.Trace, auth string) (*race2d.Report, *prog.Result, error) {
	addr, opts := remoteOptions(remote, e, auth)
	sess, err := client.Dial(addr, opts...)
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	var sink fj.Sink = sess
	if recordTrace {
		sink = fj.MultiSink{trace, sess}
	}
	res, err := prog.Exec(p, sink)
	if err != nil {
		return nil, nil, err
	}
	rep, err := sess.Finish()
	noteRecovery(sess)
	if errors.Is(err, client.ErrPartial) && rep != nil {
		fmt.Fprintln(os.Stderr, "race2d: warning: partial report (server drained mid-stream)")
		err = nil
	}
	if err != nil {
		return nil, nil, err
	}
	return rep, res, nil
}

// runTrace replays a recorded binary trace under the requested engines,
// locally or against a raced server.
func runTrace(data []byte, engineName, remote string, all, truth, stats bool, auth string) int {
	tr, err := fj.DecodeTrace(bytes.NewReader(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, "race2d:", err)
		return 2
	}
	// The detector's guarantees hold only for traces a serial fork-first
	// execution could emit; reject anything else before replaying.
	if err := fj.ValidateTrace(tr); err != nil {
		fmt.Fprintln(os.Stderr, "race2d: invalid trace:", err)
		return 2
	}
	engines := []race2d.Engine{}
	if all {
		engines = []race2d.Engine{race2d.Engine2D, race2d.EngineVC, race2d.EngineFastTrack, race2d.EngineSPBags}
	} else {
		e, err := race2d.ParseEngine(engineName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "race2d:", err)
			return 2
		}
		engines = append(engines, e)
	}
	fmt.Printf("trace: %d events, %d tasks\n", len(tr.Events), tr.Tasks())
	racy := false
	hex := func(a race2d.Addr) string { return fmt.Sprintf("%#x", uint64(a)) }
	for _, e := range engines {
		var rep *race2d.Report
		if remote != "" {
			addr, opts := remoteOptions(remote, e, auth)
			sess, err := client.Dial(addr, opts...)
			if err != nil {
				fmt.Fprintln(os.Stderr, "race2d:", err)
				return 2
			}
			tr.Replay(sess)
			rep, err = sess.Finish()
			noteRecovery(sess)
			if errors.Is(err, client.ErrPartial) && rep != nil {
				fmt.Fprintln(os.Stderr, "race2d: warning: partial report (server drained mid-stream)")
				err = nil
			}
			sess.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, "race2d:", err)
				return 2
			}
		} else {
			d := race2d.NewEngineSink(e)
			tr.Replay(d)
			rep = d.Report()
		}
		rep.Tasks = tr.Tasks()
		printReport(e, rep, hex, stats)
		racy = racy || rep.Count > 0
	}
	if truth {
		rep := bruteforce.Analyze(tr)
		fmt.Printf("ground-truth: %d racing pairs over %d operations\n", len(rep.Pairs), rep.Ops)
	}
	if racy {
		return 1
	}
	fmt.Println("no races detected")
	return 0
}

func kindName(r race2d.Race) string { return r.Kind.String() }

// runFetch retrieves the report a raced server persisted under a
// resume token (see -store-dir) and renders it exactly as the original
// run did. Detection does not rerun: the verdict is the stored one,
// byte-identical across server restarts. The program (or trace) still
// loads — and a program executes locally into a discard sink — only to
// re-derive the rendering context a stored report lacks: the task
// count, the location names, and the text header.
func runFetch(data []byte, name, tokenHex, remote, auth, engineName string, jsonOut, stats bool) int {
	if remote == "" {
		fmt.Fprintln(os.Stderr, "race2d: -fetch requires -remote")
		return 2
	}
	token, err := strconv.ParseUint(strings.TrimPrefix(tokenHex, "0x"), 16, 64)
	if err != nil || token == 0 {
		fmt.Fprintf(os.Stderr, "race2d: -fetch: bad resume token %q (want hex)\n", tokenHex)
		return 2
	}
	e, err := race2d.ParseEngine(engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "race2d:", err)
		return 2
	}

	var tasks int
	locName := func(a race2d.Addr) string { return fmt.Sprintf("%#x", uint64(a)) }
	if len(data) >= 4 && [4]byte(data[:4]) == fj.TraceMagic {
		tr, err := fj.DecodeTrace(bytes.NewReader(data))
		if err != nil {
			fmt.Fprintln(os.Stderr, "race2d:", err)
			return 2
		}
		tasks = tr.Tasks()
		if !jsonOut {
			fmt.Printf("trace: %d events, %d tasks\n", len(tr.Events), tasks)
		}
	} else {
		p, err := prog.Parse(bytes.NewReader(data))
		if err != nil {
			fmt.Fprintln(os.Stderr, "race2d:", err)
			return 2
		}
		if !jsonOut {
			st := p.Stats()
			fmt.Printf("program: %s (%d forks, %d joins, %d reads, %d writes, locations %s)\n",
				name, st.Forks, st.Joins, st.Reads, st.Writes,
				strings.Join(st.Locations, " "))
		}
		res, err := prog.Exec(p, fj.MultiSink{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "race2d:", err)
			return 2
		}
		tasks = res.Tasks
		locName = res.LocName
	}

	addr, opts := connectOptions(remote, auth)
	f, err := client.Fetch(addr, token, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "race2d:", err)
		return 2
	}
	if f.Partial {
		fmt.Fprintln(os.Stderr, "race2d: warning: stored report is partial (server drained mid-stream)")
	}
	rep := f.Report
	rep.Tasks = tasks
	rep.AddrName = locName
	if jsonOut {
		if err := rep.WriteJSON(os.Stdout, nil); err != nil {
			fmt.Fprintln(os.Stderr, "race2d:", err)
			return 2
		}
	} else {
		printReport(e, rep, locName, stats)
	}
	if rep.Count > 0 {
		return 1
	}
	if !jsonOut {
		fmt.Println("no races detected")
	}
	return 0
}
