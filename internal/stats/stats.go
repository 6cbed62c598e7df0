// Package stats provides the summary statistics, percentile, and
// distribution machinery used to turn raw experiment samples into the rows
// and series the paper's tables and figures report.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
	"unicode/utf8"
)

// Sample is a collection of duration observations (e.g., per-container
// startup times from one experiment run).
type Sample struct {
	values []time.Duration
	sorted bool
}

// NewSample returns an empty sample.
func NewSample() *Sample { return &Sample{} }

// NewSampleCap returns an empty sample with room for n observations, so a
// caller that knows its count adds them without regrowing the sample.
func NewSampleCap(n int) *Sample {
	return &Sample{values: make([]time.Duration, 0, max(n, 0))}
}

// FromDurations builds a sample from an existing slice (copied).
func FromDurations(ds []time.Duration) *Sample {
	return &Sample{values: append([]time.Duration(nil), ds...)}
}

// Add appends an observation.
func (s *Sample) Add(d time.Duration) {
	s.values = append(s.values, d)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Values returns the observations in insertion order (not a copy).
func (s *Sample) Values() []time.Duration { return s.values }

// Sort orders the observations in place. Percentile queries sort lazily;
// calling Sort once up front "seals" a sample that will later be read (but
// never mutated) by concurrent consumers, e.g. via the harness result
// cache.
func (s *Sample) Sort() { s.ensureSorted() }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		slices.Sort(s.values)
		s.sorted = true
	}
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	var total float64
	for _, v := range s.values {
		total += float64(v)
	}
	return time.Duration(total / float64(len(s.values)))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks, or 0 for an empty sample.
func (s *Sample) Percentile(p float64) time.Duration {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if n == 1 {
		return s.values[0]
	}
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo] + time.Duration(frac*float64(s.values[hi]-s.values[lo]))
}

// P50, P99 are the quantiles the paper reports; P999 is the tail quantile
// the serving experiments add.
func (s *Sample) P50() time.Duration  { return s.Percentile(50) }
func (s *Sample) P99() time.Duration  { return s.Percentile(99) }
func (s *Sample) P999() time.Duration { return s.Percentile(99.9) }

// Stddev returns the population standard deviation.
func (s *Sample) Stddev() time.Duration {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	mean := float64(s.Mean())
	var ss float64
	for _, v := range s.values {
		d := float64(v) - mean
		ss += d * d
	}
	return time.Duration(math.Sqrt(ss / float64(n)))
}

// Sum returns the total of all observations.
func (s *Sample) Sum() time.Duration {
	var total time.Duration
	for _, v := range s.values {
		total += v
	}
	return total
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value time.Duration
	Frac  float64 // fraction of observations <= Value
}

// CDF returns the empirical CDF sampled at up to points evenly spaced ranks
// (points <= 0 uses every observation).
func (s *Sample) CDF(points int) []CDFPoint {
	n := len(s.values)
	if n == 0 {
		return nil
	}
	s.ensureSorted()
	if points <= 0 || points > n {
		points = n
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		rank := (i + 1) * n / points
		if rank > n {
			rank = n
		}
		out = append(out, CDFPoint{Value: s.values[rank-1], Frac: float64(rank) / float64(n)})
	}
	return out
}

// ReductionRatio returns 1 - new/old as a fraction (e.g. 0.657 for a 65.7%
// reduction). Returns 0 when old is 0.
func ReductionRatio(old, new time.Duration) float64 {
	if old == 0 {
		return 0
	}
	return 1 - float64(new)/float64(old)
}

// OverheadRatio returns new/base - 1 (e.g. 3.05 for a +305% overhead).
func OverheadRatio(base, new time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return float64(new)/float64(base) - 1
}

// Summary is a one-line digest of a sample.
type Summary struct {
	N              int
	Mean, P50, P99 time.Duration
	Min, Max       time.Duration
	Stddev         time.Duration
}

// Summarize computes the digest.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:      s.N(),
		Mean:   s.Mean(),
		P50:    s.P50(),
		P99:    s.P99(),
		Min:    s.Min(),
		Max:    s.Max(),
		Stddev: s.Stddev(),
	}
}

// String renders the digest compactly.
func (sum Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v min=%v max=%v",
		sum.N, sum.Mean.Round(time.Millisecond), sum.P50.Round(time.Millisecond),
		sum.P99.Round(time.Millisecond), sum.Min.Round(time.Millisecond),
		sum.Max.Round(time.Millisecond))
}

// Table renders aligned text tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
	// raw keeps the pre-formatted cell values so machine-readable exports
	// (fastiov-bench -json) can emit typed values alongside the rendered
	// text.
	raw [][]any
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Header returns the column headers (not a copy).
func (t *Table) Header() []string { return t.header }

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = roundDur(v)
		case Estimate:
			row[i] = v.String()
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
	t.raw = append(t.raw, append([]any(nil), cells...))
}

// Cell is one machine-readable table cell: always the rendered text, plus
// the typed value when the cell carries one. Durations and estimates are
// expressed in seconds so downstream tooling never parses unit suffixes.
type Cell struct {
	Text string `json:"text"`
	// Seconds is set for durations and estimates (the mean for estimates).
	Seconds *float64 `json:"seconds,omitempty"`
	// CISeconds is the 95% confidence half-width, set for estimates.
	CISeconds *float64 `json:"ci_seconds,omitempty"`
	// Value is set for plain numeric cells.
	Value *float64 `json:"value,omitempty"`
}

// Cells returns the table body as typed machine-readable cells, row-major,
// aligned with Header().
func (t *Table) Cells() [][]Cell {
	f := func(v float64) *float64 { return &v }
	out := make([][]Cell, len(t.raw))
	for i, row := range t.raw {
		cells := make([]Cell, len(row))
		for j, c := range row {
			cell := Cell{Text: t.rows[i][j]}
			switch v := c.(type) {
			case time.Duration:
				cell.Seconds = f(v.Seconds())
			case Estimate:
				cell.Seconds = f(v.Mean.Seconds())
				cell.CISeconds = f(v.Half.Seconds())
			case float64:
				cell.Value = f(v)
			case int:
				cell.Value = f(float64(v))
			case int64:
				cell.Value = f(float64(v))
			case uint64:
				cell.Value = f(float64(v))
			}
			cells[j] = cell
		}
		out[i] = cells
	}
	return out
}

// String renders the table with aligned columns. Widths count runes, not
// bytes, so cells with multi-byte characters (±, µ) still align.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if n := utf8.RuneCountInString(c); i < len(width) && n > width[i] {
				width[i] = n
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", width[i]-utf8.RuneCountInString(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
