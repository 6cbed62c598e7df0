package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestEstimateOfEmptyAndSingle(t *testing.T) {
	if e := EstimateOf(nil); e.N != 0 || e.Mean != 0 || e.Half != 0 {
		t.Fatalf("empty: %+v", e)
	}
	e := EstimateOf([]time.Duration{3 * time.Second})
	if e.N != 1 || e.Mean != 3*time.Second || e.Half != 0 {
		t.Fatalf("single: %+v", e)
	}
	if got := e.String(); got != "3s" {
		t.Fatalf("single-seed String() = %q, want plain duration %q", got, "3s")
	}
}

func TestEstimateOfKnownValues(t *testing.T) {
	// Values 1s, 2s, 3s: mean 2s, sample sd 1s, t(df=2)=4.303,
	// half-width = 4.303 * 1s / sqrt(3).
	e := EstimateOf([]time.Duration{time.Second, 2 * time.Second, 3 * time.Second})
	if e.N != 3 || e.Mean != 2*time.Second {
		t.Fatalf("estimate: %+v", e)
	}
	want := 4.303 * float64(time.Second) / math.Sqrt(3)
	if got := float64(e.Half); math.Abs(got-want) > float64(time.Millisecond) {
		t.Fatalf("half-width = %v, want ~%v", e.Half, time.Duration(want))
	}
	if !strings.Contains(e.String(), "±") {
		t.Fatalf("multi-seed String() = %q, want ± marker", e.String())
	}
}

func TestEstimateIdenticalSeedsHaveZeroWidth(t *testing.T) {
	e := EstimateOf([]time.Duration{5 * time.Second, 5 * time.Second, 5 * time.Second, 5 * time.Second})
	if e.Half != 0 {
		t.Fatalf("identical values should have zero CI, got %v", e.Half)
	}
}

func TestEstimateMetric(t *testing.T) {
	type run struct{ d time.Duration }
	e := EstimateMetric([]run{{time.Second}, {3 * time.Second}}, func(r run) time.Duration { return r.d })
	if e.Mean != 2*time.Second || e.N != 2 {
		t.Fatalf("estimate: %+v", e)
	}
}

func TestTableRendersEstimates(t *testing.T) {
	tb := NewTable("metric", "value")
	tb.AddRow("single", Estimate{Mean: 1500 * time.Millisecond, N: 1})
	tb.AddRow("multi", Estimate{Mean: 1500 * time.Millisecond, Half: 20 * time.Millisecond, N: 3})
	out := tb.String()
	if !strings.Contains(out, "1.5s") {
		t.Fatalf("table output %q missing plain rendering", out)
	}
	if !strings.Contains(out, "1.5s ±20ms") {
		t.Fatalf("table output %q missing CI rendering", out)
	}
}

// TestEstimateOfNeverNonFinite is the n=1 regression: a single-seed
// estimate must keep Half exactly zero instead of the NaN a zero-df
// division produces, and extreme values must not overflow Half to ±Inf.
func TestEstimateOfNeverNonFinite(t *testing.T) {
	for _, vals := range [][]time.Duration{
		{7 * time.Second},
		{0},
		{math.MaxInt64, math.MinInt64},
		{math.MaxInt64, math.MaxInt64 - 1, math.MinInt64},
	} {
		e := EstimateOf(vals)
		if e.Half < 0 {
			t.Errorf("EstimateOf(%v).Half = %v, negative (non-finite overflow)", vals, e.Half)
		}
		if strings.Contains(e.String(), "NaN") {
			t.Errorf("EstimateOf(%v) renders %q", vals, e.String())
		}
	}
}

func TestFloatEstimateOfFiltersNonFinite(t *testing.T) {
	// The classic all-failed chaos scenario: every per-seed rate is NaN.
	if mean, half, n := FloatEstimateOf([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}); mean != 0 || half != 0 || n != 0 {
		t.Errorf("all-non-finite: (%v, %v, %d), want (0, 0, 0)", mean, half, n)
	}
	// Mixed input aggregates only the finite values.
	mean, half, n := FloatEstimateOf([]float64{2, math.NaN(), 4, math.Inf(1)})
	if n != 2 || mean != 3 {
		t.Errorf("mixed: (%v, %v, %d), want mean 3 over n=2", mean, half, n)
	}
	if math.IsNaN(half) || math.IsInf(half, 0) {
		t.Errorf("mixed: half = %v", half)
	}
	// n=1 after filtering: no spread to estimate, half stays zero.
	if _, half, n := FloatEstimateOf([]float64{5, math.NaN()}); n != 1 || half != 0 {
		t.Errorf("single finite: half=%v n=%d, want 0, 1", half, n)
	}
}

func TestSuccessRate(t *testing.T) {
	cases := []struct {
		ok, total int
		want      float64
	}{
		{0, 0, 0},   // nothing ran
		{0, 10, 0},  // all failed
		{-3, 10, 0}, // defensive: negative ok
		{5, 0, 0},   // defensive: ok without population
		{5, 10, 0.5},
		{10, 10, 1},
		{12, 10, 1}, // defensive: clamp ok > total
	}
	for _, c := range cases {
		got := SuccessRate(c.ok, c.total)
		if got != c.want {
			t.Errorf("SuccessRate(%d, %d) = %v, want %v", c.ok, c.total, got, c.want)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("SuccessRate(%d, %d) non-finite", c.ok, c.total)
		}
	}
}

func TestSampleSortSeals(t *testing.T) {
	s := FromDurations([]time.Duration{3, 1, 2})
	s.Sort()
	vals := s.Values()
	if vals[0] != 1 || vals[2] != 3 {
		t.Fatalf("not sorted: %v", vals)
	}
}
