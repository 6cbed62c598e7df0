// CSV time-series export and the ASCII host dashboard.
package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"fastiov/internal/telemetry"
)

// csvEscape quotes a CSV cell when it contains a comma, quote, or newline.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteCSV writes the sampled time series as CSV: a `t_ns` column of
// simulated tick times in nanoseconds, then one column per instrument id in
// lexical order, one row per sample tick. Values carry full float64
// round-trip precision, so the dump is byte-deterministic and lossless.
// The rows stream through one bounded export buffer: the memory and the
// allocations of an export do not grow with the number of samples.
func (r *Registry) WriteCSV(w io.Writer) error {
	ids := r.IDs()
	cols := make([][]float64, len(ids))
	s := telemetry.NewStream(w)
	s.B = append(s.B, "t_ns"...)
	for i, id := range ids {
		cols[i] = r.byID[id].series
		s.B = append(s.B, ',')
		s.B = append(s.B, csvEscape(id)...)
	}
	s.B = append(s.B, '\n')
	s.Record()
	for tick, at := range r.times {
		s.B = strconv.AppendInt(s.B, int64(at), 10)
		for _, col := range cols {
			s.B = append(s.B, ',')
			s.B = appendValue(s.B, col[tick])
			s.Record()
		}
		s.B = append(s.B, '\n')
		s.Record()
	}
	return s.Close()
}

// sparkRunes are the 8-level block characters used by the dashboard.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders a series as width block characters. Downsampling takes
// the maximum of each bucket so short spikes survive; the vertical scale is
// per-panel min..max.
func sparkline(series []float64, width int) string {
	if len(series) == 0 || width <= 0 {
		return ""
	}
	// Downsample to at most width buckets, max-per-bucket.
	if len(series) < width {
		width = len(series)
	}
	buckets := make([]float64, width)
	for i := range buckets {
		lo := i * len(series) / width
		hi := (i + 1) * len(series) / width
		if hi <= lo {
			hi = lo + 1
		}
		m := series[lo]
		for _, v := range series[lo+1 : hi] {
			if v > m {
				m = v
			}
		}
		buckets[i] = m
	}
	min, max := buckets[0], buckets[0]
	for _, v := range buckets {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	// Degenerate range (single sample or all-equal series): there is no
	// vertical scale to map onto, so render a flat mid-level line for a
	// nonzero value and a floor line for an all-zero one, instead of
	// collapsing every constant series to the floor.
	if max <= min {
		lvl := 0
		if max != 0 {
			lvl = len(sparkRunes) / 2
		}
		return strings.Repeat(string(sparkRunes[lvl]), width)
	}
	var b strings.Builder
	for _, v := range buckets {
		lvl := int((v - min) / (max - min) * float64(len(sparkRunes)-1))
		if lvl < 0 {
			lvl = 0
		}
		if lvl >= len(sparkRunes) {
			lvl = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[lvl])
	}
	return b.String()
}

// Dashboard renders every instrument as a multi-panel ASCII dashboard at
// the given width (the sparkline width; 100 aligns with the telemetry
// timeline). Panels appear in lexical id order.
func (r *Registry) Dashboard(width int) string {
	return r.DashboardFor(width, r.IDs()...)
}

// DashboardFor renders the selected instrument ids (unknown ids are
// skipped) as a multi-panel ASCII dashboard: one sparkline per metric over
// the full sampled window, with per-panel min/max/last. Output is
// byte-deterministic.
func (r *Registry) DashboardFor(width int, ids ...string) string {
	if width <= 0 {
		width = 100
	}
	sel := make([]*instrument, 0, len(ids))
	nameW := 0
	for _, id := range ids {
		in, ok := r.byID[id]
		if !ok {
			continue
		}
		sel = append(sel, in)
		if n := len([]rune(id)); n > nameW {
			nameW = n
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "host dashboard: %d samples over %v @ %v cadence ('▁'..'█' scaled per panel)\n",
		r.Samples(), time.Duration(r.end), r.cadence)
	for _, in := range sel {
		id := in.id()
		pad := strings.Repeat(" ", nameW-len([]rune(id)))
		if len(in.series) == 0 {
			fmt.Fprintf(&b, "%s%s  (no samples)\n", id, pad)
			continue
		}
		s := r.Summary(id)
		line := sparkline(in.series, width)
		if n := len([]rune(line)); n < width {
			line += strings.Repeat(" ", width-n)
		}
		fmt.Fprintf(&b, "%s%s  |%s|  min %s  max %s  last %s\n",
			id, pad, line, formatValue(s.Min), formatValue(s.Max), formatValue(s.Last))
	}
	return b.String()
}
