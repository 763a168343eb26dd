package obs

import (
	"strings"
	"testing"
)

// TestExposition pins the page format byte for byte: one # HELP and one
// # TYPE per family, integers as %d, floats as %g, label values quoted
// as %q and sorted, and an empty labeled family still declared.
func TestExposition(t *testing.T) {
	var x Exposition
	x.Counter("a_total", "A things.", 18446744073709551615)
	x.Gauge("b", "B now.", 0)
	x.GaugeFloat("ratio", "A ratio.", 2.160337552742616)
	x.GaugeVec("c", "C per tenant.", "tenant", map[string]uint64{"z": 1, "": 2, `q"x`: 3})
	x.CounterVec("d_total", "D per backend.", "backend", nil)
	var b strings.Builder
	if _, err := x.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total A things.
# TYPE a_total counter
a_total 18446744073709551615
# HELP b B now.
# TYPE b gauge
b 0
# HELP ratio A ratio.
# TYPE ratio gauge
ratio 2.160337552742616
# HELP c C per tenant.
# TYPE c gauge
c{tenant=""} 2
c{tenant="q\"x"} 3
c{tenant="z"} 1
# HELP d_total D per backend.
# TYPE d_total counter
`
	if got := b.String(); got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}
}
