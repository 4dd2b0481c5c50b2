// Package benchfmt owns the one bench-report format. Every BENCH_*.json is a
// Report: a header saying what produced it and on how many cores, then rows
// with unique names, each a list of uniquely named metrics. A metric carries
// its value, its unit and a kind its producer declared, and the kind alone
// decides what Gate does with it:
//
//   - identical — a boolean guarantee (bit-identity, run-to-run determinism).
//     Must be true in every fresh report, with or without a baseline row.
//   - floor — higher is better: fresh >= FloorFrac x baseline.
//   - ceiling — lower is better: fresh <= CeilingGrowth x baseline.
//   - info — recorded, never compared.
//
// Producers (watterbench, watterload) build a Report with New
// and Add and call Write; cmd/benchgate calls Read and Gate. Nothing else
// knows the JSON.
package benchfmt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Kind says how a metric is gated.
type Kind string

const (
	KindIdentical Kind = "identical"
	KindFloor     Kind = "floor"
	KindCeiling   Kind = "ceiling"
	KindInfo      Kind = "info"
)

// The two ratios of the gate: generous enough for a shared CI runner, tight
// enough to catch a lost optimization.
const (
	FloorFrac     = 0.6
	CeilingGrowth = 1.5
)

// Metric is one named value of a row. Value is a bool for identical, a
// non-negative float64 for floor and ceiling, and a bool, float64 or string
// for info.
type Metric struct {
	Name  string `json:"name"`
	Kind  Kind   `json:"kind"`
	Value any    `json:"value"`
	Unit  string `json:"unit,omitempty"`
}

// Identical declares a boolean guarantee.
func Identical(name string, holds bool) Metric {
	return Metric{Name: name, Kind: KindIdentical, Value: holds}
}

// Floor declares a higher-is-better measurement.
func Floor(name, unit string, v float64) Metric {
	return Metric{Name: name, Kind: KindFloor, Value: v, Unit: unit}
}

// Ceiling declares a lower-is-better measurement.
func Ceiling(name, unit string, v float64) Metric {
	return Metric{Name: name, Kind: KindCeiling, Value: v, Unit: unit}
}

// Info records a number that is never compared.
func Info[T ~int | ~uint64 | ~float64](name, unit string, v T) Metric {
	return Metric{Name: name, Kind: KindInfo, Value: float64(v), Unit: unit}
}

// Text records a string that is never compared (a hash, an algorithm list).
func Text(name, v string) Metric {
	return Metric{Name: name, Kind: KindInfo, Value: v}
}

// Row is one named group of metrics: a city, a load scenario.
type Row struct {
	Name    string   `json:"name"`
	Metrics []Metric `json:"metrics"`
}

// Header says what produced a report. Gate compares Scale and GOMAXPROCS and
// ignores the rest.
type Header struct {
	Tool       string  `json:"tool"`
	Scale      float64 `json:"scale"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision,omitempty"`
}

// Report is the one bench-report type.
type Report struct {
	Header
	Rows []Row `json:"rows"`
}

// New starts a report, stamping the cores it is recorded on, the Go version
// and the VCS revision when the binary carries one (`go run` does not).
func New(tool string, scale float64, seed int64) *Report {
	r := &Report{Header: Header{
		Tool: tool, Scale: scale, GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed,
		GoVersion: runtime.Version(),
	}}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				r.Revision = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if r.Revision != "" {
			r.Revision += dirty
		}
	}
	return r
}

// Add appends one row.
func (r *Report) Add(row string, metrics ...Metric) {
	r.Rows = append(r.Rows, Row{Name: row, Metrics: metrics})
}

func (r *Report) row(name string) *Row {
	for i := range r.Rows {
		if r.Rows[i].Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

func (row *Row) metric(name string) *Metric {
	for i := range row.Metrics {
		if row.Metrics[i].Name == name {
			return &row.Metrics[i]
		}
	}
	return nil
}

// Validate refuses a report no gate could trust: a header field out of range,
// a duplicate row or metric name, an unknown kind, or a value its kind cannot
// hold. The error names the field.
func (r *Report) Validate() error {
	switch {
	case r.Tool == "":
		return errors.New("tool is empty")
	case !(r.Scale > 0):
		return fmt.Errorf("scale %v is not positive", r.Scale)
	case r.GOMAXPROCS < 1:
		return fmt.Errorf("gomaxprocs %d is not positive", r.GOMAXPROCS)
	case len(r.Rows) == 0:
		return errors.New("rows is empty")
	}
	for i, row := range r.Rows {
		if row.Name == "" {
			return fmt.Errorf("rows[%d] has no name", i)
		}
		if r.row(row.Name) != &r.Rows[i] { // an earlier row already has the name
			return fmt.Errorf("duplicate row %q", row.Name)
		}
		for j, m := range row.Metrics {
			if m.Name == "" {
				return fmt.Errorf("row %q: metrics[%d] has no name", row.Name, j)
			}
			if row.metric(m.Name) != &row.Metrics[j] {
				return fmt.Errorf("row %q: duplicate metric %q", row.Name, m.Name)
			}
			fits := false
			switch m.Kind {
			case KindIdentical:
				_, fits = m.Value.(bool)
			case KindFloor, KindCeiling:
				v, isNum := m.Value.(float64)
				fits = isNum && v >= 0 && !math.IsInf(v, 1)
			case KindInfo:
				switch m.Value.(type) {
				case bool, float64, string:
					fits = true
				}
			default:
				return fmt.Errorf("row %q metric %q: unknown kind %q", row.Name, m.Name, m.Kind)
			}
			if !fits {
				return fmt.Errorf("row %q metric %q: kind %s cannot hold value %v", row.Name, m.Name, m.Kind, m.Value)
			}
		}
	}
	return nil
}

// Err names every guarantee of the report that is false; nil when all hold.
func (r *Report) Err() error {
	var broken []string
	for _, row := range r.Rows {
		for _, m := range row.Metrics {
			if m.Kind == KindIdentical && m.Value != true {
				broken = append(broken, row.Name+"."+m.Name)
			}
		}
	}
	if broken == nil {
		return nil
	}
	return fmt.Errorf("%s: guarantee false: %s", r.Tool, strings.Join(broken, ", "))
}

// Write validates the report and writes it to path: the header one field per
// line, then one line per metric, so a re-recorded baseline diffs by metric.
func (r *Report) Write(path string) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	head, err := json.MarshalIndent(r.Header, "", "  ")
	if err != nil {
		return err
	}
	var b bytes.Buffer
	b.Write(bytes.TrimSuffix(head, []byte("\n}")))
	b.WriteString(",\n  \"rows\": [")
	for i, row := range r.Rows {
		name, err := json.Marshal(row.Name)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s\n    {\"name\": %s, \"metrics\": [", comma(i), name)
		for j, m := range row.Metrics {
			line, err := json.Marshal(m)
			if err != nil {
				return fmt.Errorf("%s: row %q metric %q: %w", path, row.Name, m.Name, err)
			}
			fmt.Fprintf(&b, "%s\n      %s", comma(j), line)
		}
		b.WriteString("\n    ]}")
	}
	b.WriteString("\n  ]\n}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func comma(i int) string {
	if i == 0 {
		return ""
	}
	return ","
}

// Read loads and validates the report at path. Unknown fields are refused, so
// a file in any other shape is an error, not an empty report.
func Read(path string) (*Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Check is one comparison Gate made.
type Check struct {
	Row, Metric string
	Kind        Kind
	OK          bool
	Note        string
}

// Gate walks the baseline's table against the fresh report. It refuses, with
// an error naming the field, reports that cannot be compared: either side
// invalid, scale or gomaxprocs differing, a baseline row or gated metric the
// fresh report lacks, a metric whose kind differs between the two. Otherwise
// it returns one Check per floor and ceiling metric of the baseline and one
// per identical metric of the fresh report (so a row the baseline has never
// seen still answers for its guarantees), sorted by row then metric.
func Gate(baseline, fresh *Report) ([]Check, error) {
	if err := baseline.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := fresh.Validate(); err != nil {
		return nil, fmt.Errorf("fresh: %w", err)
	}
	if baseline.Scale != fresh.Scale {
		return nil, fmt.Errorf("scale mismatch: baseline %v, fresh %v", baseline.Scale, fresh.Scale)
	}
	if baseline.GOMAXPROCS != fresh.GOMAXPROCS {
		return nil, fmt.Errorf("gomaxprocs mismatch: baseline %d, fresh %d", baseline.GOMAXPROCS, fresh.GOMAXPROCS)
	}
	var checks []Check
	for _, brow := range baseline.Rows {
		frow := fresh.row(brow.Name)
		if frow == nil {
			return nil, fmt.Errorf("row %q missing from the fresh report", brow.Name)
		}
		for _, bm := range brow.Metrics {
			fm := frow.metric(bm.Name)
			if fm == nil {
				if bm.Kind == KindInfo {
					continue
				}
				return nil, fmt.Errorf("row %q: %s metric %q missing from the fresh report", brow.Name, bm.Kind, bm.Name)
			}
			if fm.Kind != bm.Kind {
				return nil, fmt.Errorf("row %q metric %q: kind %s in the baseline, %s in the fresh report", brow.Name, bm.Name, bm.Kind, fm.Kind)
			}
			if bm.Kind != KindFloor && bm.Kind != KindCeiling {
				continue
			}
			b, f := bm.Value.(float64), fm.Value.(float64)
			ratio, ok := FloorFrac, f >= FloorFrac*b
			if bm.Kind == KindCeiling {
				ratio, ok = CeilingGrowth, f <= CeilingGrowth*b
			}
			checks = append(checks, Check{Row: brow.Name, Metric: bm.Name, Kind: bm.Kind, OK: ok,
				Note: fmt.Sprintf("fresh=%.4g %s=%.4g (%v x baseline %.4g)", f, bm.Kind, ratio*b, ratio, b)})
		}
	}
	for _, frow := range fresh.Rows {
		for _, fm := range frow.Metrics {
			if fm.Kind == KindIdentical {
				checks = append(checks, Check{Row: frow.Name, Metric: fm.Name, Kind: fm.Kind,
					OK: fm.Value == true, Note: fmt.Sprintf("fresh=%v", fm.Value)})
			}
		}
	}
	sort.Slice(checks, func(i, j int) bool {
		if checks[i].Row != checks[j].Row {
			return checks[i].Row < checks[j].Row
		}
		return checks[i].Metric < checks[j].Metric
	})
	return checks, nil
}
