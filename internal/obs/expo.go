package obs

import (
	"fmt"
	"io"
	"sort"
)

// Exposition builds one page of the Prometheus text format (version
// 0.0.4), the body raced and racedctl serve on /metrics. Each call
// writes one whole family: a "# HELP" line, a "# TYPE" line, then its
// samples, so every family appears once and its samples stay together.
// Integer samples print as %d would, and GaugeFloat's as %g. Help texts
// are single-line literals and need no escaping.
type Exposition struct {
	b []byte
}

// Counter writes a family of one unlabeled counter sample.
func (x *Exposition) Counter(name, help string, v uint64) {
	x.family(name, help, "counter")
	x.b = fmt.Appendf(x.b, "%s %d\n", name, v)
}

// Gauge writes a family of one unlabeled gauge sample.
func (x *Exposition) Gauge(name, help string, v uint64) {
	x.family(name, help, "gauge")
	x.b = fmt.Appendf(x.b, "%s %d\n", name, v)
}

// GaugeFloat writes a family of one unlabeled gauge sample printed
// with %g.
func (x *Exposition) GaugeFloat(name, help string, v float64) {
	x.family(name, help, "gauge")
	x.b = fmt.Appendf(x.b, "%s %g\n", name, v)
}

// CounterVec writes a counter family with one sample per key of vals,
// labeled label="key", in sorted key order.
func (x *Exposition) CounterVec(name, help, label string, vals map[string]uint64) {
	x.family(name, help, "counter")
	x.samples(name, label, vals)
}

// GaugeVec writes a gauge family with one sample per key of vals,
// labeled label="key", in sorted key order.
func (x *Exposition) GaugeVec(name, help, label string, vals map[string]uint64) {
	x.family(name, help, "gauge")
	x.samples(name, label, vals)
}

// WriteTo writes the page built so far to w.
func (x *Exposition) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(x.b)
	return int64(n), err
}

func (x *Exposition) family(name, help, typ string) {
	x.b = fmt.Appendf(x.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (x *Exposition) samples(name, label string, vals map[string]uint64) {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		x.b = fmt.Appendf(x.b, "%s{%s=%q} %d\n", name, label, k, vals[k])
	}
}
