package metrics

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"fastiov/internal/sim"
)

// TestRegistryBasics covers registration, identity, and duplicate detection.
func TestRegistryBasics(t *testing.T) {
	r := New(0)
	if r.Cadence() != DefaultCadence {
		t.Fatalf("cadence = %v, want default %v", r.Cadence(), DefaultCadence)
	}
	v := 3.0
	r.GaugeFunc("g", "a gauge", nil, func() float64 { return v })
	r.CounterFunc("c_total", "a counter", []Label{{"k", "x"}}, func() float64 { return 2 * v })
	h := r.NewHistogram("h", "a histogram", nil, []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	if h.Count() != 3 || h.Sum() != 11 {
		t.Fatalf("histogram count/sum = %d/%v, want 3/11", h.Count(), h.Sum())
	}
	ids := r.IDs()
	want := []string{`c_total{k="x"}`, "g", "h"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %q, want %q", i, ids[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("g", "dup", nil, func() float64 { return 0 })
}

// TestSamplerCadence runs the sampler against a toy kernel: a 100 ms
// simulation at a 10 ms cadence must sample at t=0,10,...,90 (the tick at
// the quiesce instant itself is not taken — daemons are reaped once the
// last real proc finishes) — and the sampler daemon must not extend the
// simulation beyond its last real proc.
func TestSamplerCadence(t *testing.T) {
	k := sim.NewKernel()
	r := New(10 * time.Millisecond)
	now := func() float64 { return 0 }
	r.GaugeFunc("g", "g", nil, now)
	r.Start(k)
	k.Go("work", func(p *sim.Proc) { p.Sleep(100 * time.Millisecond) })
	end := k.Run()
	if end != 100*time.Millisecond {
		t.Fatalf("sampler daemon kept the simulation alive: end = %v", end)
	}
	r.Seal(end)
	if r.Samples() != 10 {
		t.Fatalf("samples = %d, want 10 (t=0..90ms @10ms)", r.Samples())
	}
	for i, at := range r.Times() {
		if want := time.Duration(i) * 10 * time.Millisecond; at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

// TestGaugeSeriesTracksValue checks the sampled series reflects the closure
// value at each tick, and that Seal freezes the final against later
// mutation.
func TestGaugeSeriesTracksValue(t *testing.T) {
	k := sim.NewKernel()
	r := New(10 * time.Millisecond)
	val := 0.0
	r.GaugeFunc("g", "g", nil, func() float64 { return val })
	r.Start(k)
	k.Go("work", func(p *sim.Proc) {
		p.Sleep(15 * time.Millisecond) // past the t=10ms tick
		val = 7
		p.Sleep(10 * time.Millisecond)
	})
	end := k.Run()
	r.Seal(end)
	s := r.Series("g")
	if len(s) != 3 || s[0] != 0 || s[1] != 0 || s[2] != 7 {
		t.Fatalf("series = %v, want [0 0 7]", s)
	}
	if r.Final("g") != 7 {
		t.Fatalf("final = %v, want 7", r.Final("g"))
	}
	val = 99 // post-seal mutation (audit teardown analog)
	if r.Final("g") != 7 {
		t.Fatalf("Seal did not snapshot the final: %v", r.Final("g"))
	}
	var a, b bytes.Buffer
	if err := r.WriteOpenMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.String(), "g 7\n") {
		t.Fatalf("sealed export reads live value:\n%s", a.String())
	}
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated OpenMetrics exports differ")
	}
}

// TestSealIdempotentAndFrozen checks Seal only takes effect once, that
// finals are snapshotted with the registry already reading as sealed at
// end (so an integral instrument can extend itself to End), and that
// post-seal samples are ignored.
func TestSealIdempotentAndFrozen(t *testing.T) {
	r := New(time.Millisecond)
	v := 1.0
	r.GaugeFunc("g", "g", nil, func() float64 { return v })
	r.CounterFunc("busy_total", "busy", nil, func() float64 {
		if r.Sealed() {
			return r.End().Seconds()
		}
		return 0
	})
	r.sample(0)
	r.Seal(10 * time.Millisecond)
	if !r.Sealed() {
		t.Fatal("not sealed")
	}
	if got := r.Final("busy_total"); got != 0.01 {
		t.Fatalf("final read before the seal took effect: %v, want 0.01", got)
	}
	v = 2
	r.sample(20 * time.Millisecond)
	r.Seal(20 * time.Millisecond)
	if r.Final("g") != 1 {
		t.Fatalf("second Seal moved the final: %v", r.Final("g"))
	}
	if r.Samples() != 1 {
		t.Fatalf("post-seal sample recorded: %d", r.Samples())
	}
	if r.End() != 10*time.Millisecond {
		t.Fatalf("second Seal moved end: %v", r.End())
	}
}

// TestOpenMetricsExposition locks the exposition shape for each kind:
// HELP/TYPE per family, counter _total sample naming, cumulative histogram
// buckets with implicit +Inf, and the trailing # EOF.
func TestOpenMetricsExposition(t *testing.T) {
	r := New(0)
	r.GaugeFunc("free_pages", "Free pages.", []Label{{"size", "4K"}}, func() float64 { return 10 })
	r.CounterFunc("evts_total", "Events.", nil, func() float64 { return 4 })
	h := r.NewHistogram("lat_seconds", "Latency.", nil, []float64{1, 2})
	h.Observe(0.5)
	h.Observe(0.7)
	h.Observe(1.5)
	h.Observe(9)
	r.Seal(0)
	var b bytes.Buffer
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP evts Events.
# TYPE evts counter
evts_total 4
# HELP free_pages Free pages.
# TYPE free_pages gauge
free_pages{size="4K"} 10
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="2"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 11.7
lat_seconds_count 4
# EOF
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestNameAndLabelSanitization checks illegal instrument names and label
// keys are mapped onto the legal alphabets and values are escaped.
func TestNameAndLabelSanitization(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ok_name:x", "ok_name:x"},
		{"bad-name.x", "bad_name_x"},
		{"9lead", "_9lead"},
		{"", "_"},
		{"héllo", "h_llo"},
	}
	for _, c := range cases {
		if got := sanitizeName(c.in); got != c.want {
			t.Errorf("sanitizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := sanitizeLabelKey("le:gal"); got != "le_gal" {
		t.Errorf("sanitizeLabelKey kept ':': %q", got)
	}
	if got := escapeLabelValue("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("escapeLabelValue = %q", got)
	}
	r := New(0)
	r.GaugeFunc("weird name", "multi\nline", []Label{{"bad key", "v\"1\n"}}, func() float64 { return 1 })
	r.Seal(0)
	var b bytes.Buffer
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP weird_name multi\\nline\n# TYPE weird_name gauge\nweird_name{bad_key=\"v\\\"1\\n\"} 1\n# EOF\n"
	if b.String() != want {
		t.Fatalf("sanitized exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestFormatValue pins the value rendering: round-trip precision, +Inf.
func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"}, {1.5, "1.5"}, {100, "100"},
		{0.1, "0.1"}, {math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"},
	}
	for _, c := range cases {
		if got := formatValue(c.in); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestWriteCSV locks the CSV layout: t_ns then lexical ids, quoting ids
// that contain commas or quotes.
func TestWriteCSV(t *testing.T) {
	k := sim.NewKernel()
	r := New(10 * time.Millisecond)
	r.GaugeFunc("b", "b", nil, func() float64 { return 2 })
	r.GaugeFunc("a", "a", []Label{{"k", "x,y"}}, func() float64 { return 1 })
	r.Start(k)
	k.Go("work", func(p *sim.Proc) { p.Sleep(20 * time.Millisecond) })
	r.Seal(k.Run())
	var b bytes.Buffer
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "t_ns,\"a{k=\"\"x,y\"\"}\",b\n0,1,2\n10000000,1,2\n"
	if b.String() != want {
		t.Fatalf("csv mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestWriteCSVAllocsFlat pins the streaming CSV export: its allocation
// count is the same for 10 samples as for 5000, whose rows overflow the
// export buffer several times.
func TestWriteCSVAllocsFlat(t *testing.T) {
	allocs := func(samples int) float64 {
		k := sim.NewKernel()
		r := New(time.Millisecond)
		v := 0.0
		r.GaugeFunc("g", "g", []Label{{"k", "x,y"}}, func() float64 { v += 0.1; return v })
		r.CounterFunc("c_total", "c", nil, func() float64 { return math.Inf(1) })
		r.Start(k)
		k.Go("work", func(p *sim.Proc) { p.Sleep(time.Duration(samples) * time.Millisecond) })
		r.Seal(k.Run())
		if r.Samples() != samples {
			t.Fatalf("samples = %d, want %d", r.Samples(), samples)
		}
		return testing.AllocsPerRun(5, func() {
			if err := r.WriteCSV(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(5000); many != few {
		t.Errorf("WriteCSV allocates %v times for 10 samples and %v for 5000", few, many)
	}
}

// TestSparkline pins downsampling (max-per-bucket) and scaling behavior.
func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "" {
		t.Errorf("empty series -> %q", got)
	}
	// Degenerate min==max ranges have no vertical scale: a flat nonzero
	// series renders as a mid-level line (it used to collapse to the
	// floor, indistinguishable from zero), a flat zero series stays on
	// the floor, and both rules hold for single-sample series.
	if got := sparkline([]float64{5, 5, 5}, 10); got != "▅▅▅" {
		t.Errorf("flat nonzero series = %q, want mid blocks", got)
	}
	if got := sparkline([]float64{0, 0, 0}, 10); got != "▁▁▁" {
		t.Errorf("flat zero series = %q, want bottom blocks", got)
	}
	if got := sparkline([]float64{3}, 10); got != "▅" {
		t.Errorf("single nonzero sample = %q, want one mid block", got)
	}
	if got := sparkline([]float64{0}, 10); got != "▁" {
		t.Errorf("single zero sample = %q, want one bottom block", got)
	}
	if got := sparkline([]float64{-2, -2}, 4); got != "▅▅" {
		t.Errorf("flat negative series = %q, want mid blocks", got)
	}
	// A single spike must survive 2:1 downsampling (max-per-bucket).
	got := sparkline([]float64{0, 0, 9, 0}, 2)
	if got != "▁█" {
		t.Errorf("spike series = %q, want ▁█", got)
	}
	if got := sparkline([]float64{0, 7}, 2); got != "▁█" {
		t.Errorf("ramp = %q, want ▁█", got)
	}
}

// TestDashboardFor checks panel selection, alignment, and summary fields.
func TestDashboardFor(t *testing.T) {
	k := sim.NewKernel()
	r := New(10 * time.Millisecond)
	v := 0.0
	r.GaugeFunc("long_metric_name", "g", nil, func() float64 { return v })
	r.GaugeFunc("x", "g", nil, func() float64 { return 1 })
	r.Start(k)
	k.Go("work", func(p *sim.Proc) {
		p.Sleep(15 * time.Millisecond)
		v = 4
		p.Sleep(10 * time.Millisecond)
	})
	r.Seal(k.Run())
	out := r.DashboardFor(10, "x", "long_metric_name", "nonexistent")
	if strings.Contains(out, "nonexistent") {
		t.Error("unknown id rendered")
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("dashboard lines = %d, want header+2 panels:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "host dashboard: 3 samples over 25ms @ 10ms cadence") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "x                 |") {
		t.Errorf("short id not padded to long id width: %q", lines[1])
	}
	if !strings.Contains(lines[2], "min 0  max 4  last 4") {
		t.Errorf("summary fields wrong: %q", lines[2])
	}
	// Two renders are byte-identical.
	if out != r.DashboardFor(10, "x", "long_metric_name", "nonexistent") {
		t.Error("dashboard render is not deterministic")
	}
}

// TestSummary checks the series digest.
func TestSummary(t *testing.T) {
	r := New(0)
	v := 0.0
	r.GaugeFunc("g", "g", nil, func() float64 { return v })
	for _, x := range []float64{3, 1, 2} {
		v = x
		r.sample(sim.Duration(r.Samples()) * sim.Duration(time.Millisecond))
	}
	s := r.Summary("g")
	if s.Min != 1 || s.Max != 3 || s.Mean != 2 || s.Last != 2 || s.Samples != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if z := r.Summary("nope"); z != (SeriesSummary{}) {
		t.Fatalf("unknown id summary = %+v, want zero", z)
	}
}

// TestFingerprintCoversSeries checks the fingerprint moves when a sampled
// value moves, even if the final snapshot is identical.
func TestFingerprintCoversSeries(t *testing.T) {
	build := func(mid float64) *Registry {
		r := New(0)
		v := 0.0
		r.GaugeFunc("g", "g", nil, func() float64 { return v })
		r.sample(0)
		v = mid
		r.sample(sim.Duration(time.Millisecond))
		v = 0
		r.sample(2 * sim.Duration(time.Millisecond))
		r.Seal(2 * sim.Duration(time.Millisecond))
		return r
	}
	a, b, c := build(1), build(1), build(2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical registries fingerprint differently")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint ignores the sampled series")
	}
}

// TestCounterFamilyNaming checks a counter registered without the _total
// suffix still exports legal sample names.
func TestCounterFamilyNaming(t *testing.T) {
	r := New(0)
	r.CounterFunc("plain", "c", nil, func() float64 { return 1 })
	r.Seal(0)
	var b bytes.Buffer
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE plain counter\n") || !strings.Contains(out, "plain_total 1\n") {
		t.Fatalf("counter naming:\n%s", out)
	}
}
