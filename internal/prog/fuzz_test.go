package prog

import (
	"strings"
	"testing"

	"repro/internal/fj"
)

// ParseSeeds is the seed corpus of FuzzParse, shared with the
// detector-vs-oracle fuzz target in this directory's external test
// package.
var ParseSeeds = []string{
	"",
	"fork a { read r }\nread r\nfork c { join a }\nwrite r\njoin c\n",
	"fork a { } join a",
	"joinleft",
	"read x write y",
	"fork a { fork b { write z } join b }",
	"# comment only",
	"fork { }",
	"}{",
	"fork a { read r",
	strings.Repeat("fork t { ", 50) + "write x" + strings.Repeat(" }", 50),
}

// FuzzParse checks the parser never panics, and that accepted programs
// round-trip through String and execute (or fail) cleanly. Run the seeds
// with `go test`; explore with `go test -fuzz=FuzzParse ./internal/prog`.
func FuzzParse(f *testing.F) {
	for _, s := range ParseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseString(src)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		// Accepted programs must round-trip.
		again, err := ParseString(p.String())
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", p.String(), err)
		}
		if p.String() != again.String() {
			t.Fatalf("unstable round trip:\n%s\nvs\n%s", p.String(), again.String())
		}
		// Execution either succeeds or reports a structured error; the
		// emitted trace must validate.
		var tr fj.Trace
		if _, err := Exec(p, &tr); err != nil {
			return
		}
		if err := fj.ValidateTrace(&tr); err != nil {
			t.Fatalf("interpreter emitted invalid trace: %v", err)
		}
	})
}
