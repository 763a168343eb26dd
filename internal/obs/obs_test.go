package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCheckAccounting(t *testing.T) {
	good := Stats{SupQueries: 100, Finds: 100, Unions: 9, PathSteps: 40, Reads: 60, Writes: 40}
	if err := CheckAccounting(good, 10); err != nil {
		t.Fatalf("valid accounting rejected: %v", err)
	}
	bad := good
	bad.Finds = 101 // a find not traceable to a query
	if err := CheckAccounting(bad, 10); err == nil || !strings.Contains(err.Error(), "finds") {
		t.Fatalf("finds != m not caught: %v", err)
	}
	bad = good
	bad.Unions = 10 // n-1 = 9
	if err := CheckAccounting(bad, 10); err == nil || !strings.Contains(err.Error(), "unions") {
		t.Fatalf("unions > n-1 not caught: %v", err)
	}
	bad = good
	bad.PathSteps = AlphaSlack*(good.Finds+good.Unions+10) + 1
	if err := CheckAccounting(bad, 10); err == nil || !strings.Contains(err.Error(), "path compression") {
		t.Fatalf("unbounded path steps not caught: %v", err)
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Reads: 30, Writes: 10, Finds: 50, Unions: 10, PathSteps: 20}
	if s.MemOps() != 40 {
		t.Errorf("MemOps = %d, want 40", s.MemOps())
	}
	if s.UnionFindOps() != 60 {
		t.Errorf("UnionFindOps = %d, want 60", s.UnionFindOps())
	}
	if got := s.AmortizedSteps(); got != 2 {
		t.Errorf("AmortizedSteps = %v, want 2", got)
	}
	if (Stats{}).AmortizedSteps() != 0 {
		t.Error("AmortizedSteps on empty stats should be 0")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, Finds: 2}
	b := Stats{Reads: 2, Unions: 3, Races: 1}
	a.Add(b)
	if a.Reads != 3 || a.Finds != 2 || a.Unions != 3 || a.Races != 1 {
		t.Errorf("Add merged wrong: %+v", a)
	}
}

func TestStatsJSONOmitsZeros(t *testing.T) {
	data, err := json.Marshal(Stats{Finds: 7, Unions: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if got != `{"finds":7,"unions":2}` {
		t.Errorf("zero fields leaked into JSON: %s", got)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Reads: 3, Writes: 1, SupQueries: 5, Finds: 5, Unions: 1}
	str := s.String()
	for _, want := range []string{"reads=3", "writes=1", "sup-queries=5", "finds=5", "unions=1", "amortized-uf-steps/op="} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q: %s", want, str)
		}
	}
	if strings.Contains(str, "epoch-hits") {
		t.Errorf("String() printed a zero counter: %s", str)
	}
}
