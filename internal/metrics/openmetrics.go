// OpenMetrics text exposition of a sealed registry.
//
// The exporter follows the OpenMetrics text format: one `# HELP` / `# TYPE`
// pair per metric family, `_total` samples for counters, cumulative
// `_bucket{le=...}` / `_sum` / `_count` samples for histograms, and a final
// `# EOF`. Metric and label names are sanitized to the legal character set
// and label values are escaped, so arbitrary instrument names never produce
// an unparseable exposition (fuzz-tested).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sanitizeName maps s onto the OpenMetrics metric-name alphabet
// [a-zA-Z_:][a-zA-Z0-9_:]*. Illegal runes become '_'; an empty or
// digit-leading result is prefixed with '_'.
func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	out := b.String()
	if out == "" || (out[0] >= '0' && out[0] <= '9') {
		out = "_" + out
	}
	return out
}

// sanitizeLabelKey maps s onto the label-name alphabet
// [a-zA-Z_][a-zA-Z0-9_]* (no ':' allowed, unlike metric names).
func sanitizeLabelKey(s string) string {
	out := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
	if out == "" || (out[0] >= '0' && out[0] <= '9') {
		out = "_" + out
	}
	return out
}

// escapeLabelValue escapes a label value for the text exposition:
// backslash, double quote, and newline.
func escapeLabelValue(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders a sample value with full float64 round-trip
// precision; +Inf renders as the exposition's "+Inf".
func formatValue(v float64) string { return string(appendValue(nil, v)) }

// appendValue appends formatValue's rendering of v to b.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, +1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// renderLabels renders a sanitized, escaped label set (with optional extra
// labels appended) as `{k="v",...}`, or "" when empty.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeLabelKey(l.Key))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// exportFamily returns the sanitized family name for an instrument:
// counters drop a trailing "_total" (the suffix belongs to the sample, not
// the family).
func (in *instrument) exportFamily() string {
	name := sanitizeName(in.name)
	if in.kind == KindCounter {
		name = strings.TrimSuffix(name, "_total")
		if name == "" {
			name = "_"
		}
	}
	return name
}

// renderExemplar renders a bucket's OpenMetrics exemplar suffix
// (` # {trace_id="N"} value timestamp`), or "" when the bucket has none —
// histograms that never saw ObserveExemplar export byte-identically to
// before exemplars existed.
func renderExemplar(h *Histogram, bucket int) string {
	if h.exSet == nil || !h.exSet[bucket] {
		return ""
	}
	ex := h.ex[bucket]
	return fmt.Sprintf(` # {trace_id="%d"} %s %s`,
		ex.Trace, formatValue(ex.Value), formatValue(ex.At.Seconds()))
}

// WriteOpenMetrics writes the registry as an OpenMetrics text snapshot.
// Values are the sealed finals (or live values if the registry is not yet
// sealed); families are emitted in lexical order so the snapshot is
// byte-deterministic.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	type entry struct {
		family string
		in     *instrument
	}
	entries := make([]entry, 0, len(r.insts))
	for _, in := range r.insts {
		entries = append(entries, entry{in.exportFamily(), in})
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].family != entries[j].family {
			return entries[i].family < entries[j].family
		}
		return entries[i].in.id() < entries[j].in.id()
	})

	var b strings.Builder
	lastFamily := ""
	for _, e := range entries {
		in := e.in
		if e.family != lastFamily {
			fmt.Fprintf(&b, "# HELP %s %s\n", e.family, escapeHelp(in.help))
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.family, in.kind)
			lastFamily = e.family
		}
		val := in.final
		if !r.sealed {
			val = in.value()
		}
		switch in.kind {
		case KindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", e.family, renderLabels(in.labels), formatValue(val))
		case KindCounter:
			fmt.Fprintf(&b, "%s_total%s %s\n", e.family, renderLabels(in.labels), formatValue(val))
		case KindHistogram:
			h := in.hist
			var cum uint64
			for i, ub := range h.buckets {
				cum += h.counts[i]
				fmt.Fprintf(&b, "%s_bucket%s %d%s\n", e.family,
					renderLabels(in.labels, Label{"le", formatValue(ub)}), cum,
					renderExemplar(h, i))
			}
			cum += h.counts[len(h.buckets)]
			fmt.Fprintf(&b, "%s_bucket%s %d%s\n", e.family,
				renderLabels(in.labels, Label{"le", "+Inf"}), cum,
				renderExemplar(h, len(h.buckets)))
			fmt.Fprintf(&b, "%s_sum%s %s\n", e.family, renderLabels(in.labels), formatValue(h.sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", e.family, renderLabels(in.labels), h.total)
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}
