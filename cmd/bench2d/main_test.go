package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

func TestQuickExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not -short")
	}
	cases := map[string][]string{
		"1":  {"E1 (Theorems 1-2)", "0 mismatches"},
		"2":  {"E2 (Theorem 3)", "ns/query"},
		"3":  {"E3 (Theorem 4)", "0 condition-(6) violations"},
		"4":  {"E4 (Theorem 5)", "tasks"},
		"5":  {"E5 (Theorem 5)", "ns/memop"},
		"6":  {"E6 (Theorem 6)", "2-realizers verified"},
		"7":  {"E7 (soundness/precision)"},
		"10": {"E10 (Figures 3/4/7)", "golden match: true"},
	}
	for exp, wants := range cases {
		out, code := capture(t, func() int { return run([]string{"-e", exp, "-quick"}) })
		if code != 0 {
			t.Fatalf("-e %s: exit %d", exp, code)
		}
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("-e %s output missing %q:\n%s", exp, want, out)
			}
		}
	}
}

func TestE7QuickAgreesFully(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-e", "7", "-quick"}) })
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "agreed on 50/50") {
		t.Fatalf("detector disagreed with ground truth:\n%s", out)
	}
}

func TestBadFlag(t *testing.T) {
	if _, code := capture(t, func() int { return run([]string{"-bogus"}) }); code != 2 {
		t.Fatalf("exit = %d", code)
	}
}

// TestMergeCellsKeepsOtherSections: landing one experiment's cells, or
// the -e bench matrix, leaves every other section of the document as
// it was, so `make bench-json` keeps the E17 cells.
func TestMergeCellsKeepsOtherSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	const compress = `[{"bytes_per_event":0.009,"workload":"pipeline"}]`
	if err := os.WriteFile(path, []byte(`{"compress":`+compress+`}`), 0o644); err != nil {
		t.Fatal(err)
	}
	section := func(key string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if doc[key] != nil {
			json.Compact(&compact, doc[key])
		}
		return compact.String()
	}

	capture(t, func() int {
		if err := mergeCells(path, map[string]any{"extra": []int{1, 2}}); err != nil {
			t.Fatal(err)
		}
		return 0
	})
	if got := section("extra"); got != "[1,2]" {
		t.Fatalf("extra section %q, want [1,2]", got)
	}
	if got := section("compress"); got != compress {
		t.Fatalf("compress section %q after landing extra, want %q", got, compress)
	}

	if testing.Short() {
		return
	}
	if _, code := capture(t, func() int { return run([]string{"-e", "bench", "-quick", "-parallel", "2", "-json", path}) }); code != 0 {
		t.Fatalf("-e bench: exit %d", code)
	}
	if section("results") == "" || section("ingest") == "" {
		t.Fatal("-e bench wrote no results or ingest section")
	}
	for key, want := range map[string]string{"compress": compress, "extra": "[1,2]"} {
		if got := section(key); got != want {
			t.Errorf("%s section %q after -e bench, want %q", key, got, want)
		}
	}
}
