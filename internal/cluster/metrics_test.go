package cluster

import (
	"bytes"
	"testing"
	"time"
)

// meteredHost builds a host with metrics enabled on the given spec.
func meteredHost(t *testing.T, spec HostSpec, baseline string, mutate func(*Options)) *Host {
	t.Helper()
	opts, err := OptionsFor(baseline)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 7
	opts.Metrics = true
	if mutate != nil {
		mutate(&opts)
	}
	h, err := NewHost(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMembwConservation is the conservation property: the event-driven
// busy integral of the memory-bandwidth resource must equal total pages
// zeroed x the per-page zeroing cost, plus the image-copy population term
// on baselines that map the image region — exactly, not up to sampling
// error.
//
// The cost model pins ZeroBytesPerSec to PageSize*1000, so one page costs
// exactly 1 ms of one stream and batched runs of n pages cost exactly
// n ms, with no integer truncation anywhere. Image population charges one
// stream for ImageBytes/ImageCopyBytesPerSec per container (the same
// integer expression the hypervisor uses). The property is checked on
// baselines whose bandwidth use all happens inside container-start procs
// (vanilla, and fastiov with the scrubber disabled): a background scrubber
// could be parked mid-acquisition at quiesce, which would legitimately
// split a page between the integral and the counter.
func TestMembwConservation(t *testing.T) {
	spec := DefaultHostSpec()
	msPerPage := func(o *Options) { o.Costs.ZeroBytesPerSec = spec.Memory.PageSize * 1000 } // exactly 1ms per page
	const n = 20
	for _, tc := range []struct {
		name     string
		baseline string
		// imageCopies counts membw acquisitions for image population:
		// vanilla maps + populates the image region per container; FastIOV's
		// SkipImageMap elides the whole stage.
		imageCopies int
		mutate      func(*Options)
	}{
		{"vanilla", BaselineVanilla, n, msPerPage},
		{"fastiov-noscrub", BaselineFastIOV, 0, func(o *Options) { msPerPage(o); o.DisableScrubber = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := meteredHost(t, spec, tc.baseline, tc.mutate)
			res := h.StartupExperiment(n)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Metrics == nil || !res.Metrics.Sealed() {
				t.Fatal("no sealed metrics on the result")
			}
			if h.Mem.ZeroedBytes == 0 {
				t.Fatal("experiment zeroed no memory — conservation check is vacuous")
			}
			pages := h.Mem.ZeroedBytes / spec.Memory.PageSize
			perImage := time.Duration(h.Opts.Layout.ImageBytes * int64(time.Second) / h.Env.Costs.ImageCopyBytesPerSec)
			want := time.Duration(pages)*time.Millisecond + time.Duration(tc.imageCopies)*perImage
			if got := h.Mem.Bandwidth().Busy(); got != want {
				t.Errorf("membw busy integral = %v, want exactly %v (%d pages x 1ms + %d image copies x %v)",
					got, want, pages, tc.imageCopies, perImage)
			}
			if got := res.Metrics.Final(MetricMembwBusy); got != want.Seconds() {
				t.Errorf("sealed membw busy final = %v, want %v", got, want.Seconds())
			}
			if got := res.Metrics.Final(MetricZeroedBytes); got != float64(h.Mem.ZeroedBytes) {
				t.Errorf("sealed zeroed-bytes final = %v, want %d", got, h.Mem.ZeroedBytes)
			}
		})
	}
}

// TestDevsetQueueDepthContrast pins the paper's §3.2 story as observed by
// the metrics subsystem: under a concurrent startup wave, vanilla's shared
// devset lock builds a waiter queue, while FastIOV's lock decomposition
// keeps the queue empty.
func TestDevsetQueueDepthContrast(t *testing.T) {
	run := func(baseline string) *Host {
		h := meteredHost(t, DefaultHostSpec(), baseline, nil)
		res := h.StartupExperiment(30)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return h
	}
	vh := run(BaselineVanilla)
	if peak := vh.Metrics.Final(MetricDevsetQueuePeak); peak == 0 {
		t.Error("vanilla: devset queue peak is 0 under a 30-container wave")
	}
	fh := run(BaselineFastIOV)
	if peak := fh.Metrics.Final(MetricDevsetQueuePeak); peak != 0 {
		t.Errorf("fastiov: devset queue peak = %v, want 0 (lock decomposition)", peak)
	}
}

// TestMetricsSealedAgainstTeardown checks the exporter snapshot is taken
// at the end of the measured phase, before the audit teardown mutates the
// substrates: the sealed finals and exports must not move even though
// teardown frees pages, closes fds, and unmaps IOMMU entries afterwards.
func TestMetricsSealedAgainstTeardown(t *testing.T) {
	h := meteredHost(t, DefaultHostSpec(), BaselineVanilla, func(o *Options) { o.Audit = true })
	res := h.StartupExperiment(10)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Leaks == nil || !res.Leaks.Clean() {
		t.Fatalf("audit not clean: %v", res.Leaks)
	}
	// Teardown closed every sandbox fd, but the sealed final still shows
	// the open devices of the measured phase.
	if got := res.Metrics.Final("vfio_open_fds"); got == 0 {
		t.Error("sealed vfio_open_fds final is 0 — snapshot taken after teardown")
	}
	if live := h.VFIO.TotalOpens(); live != 0 {
		t.Fatalf("audit left %d fds open — teardown-isolation check is vacuous", live)
	}
	if got := res.Metrics.Final("cluster_startups_started_total"); got != 10 {
		t.Errorf("started final = %v, want 10", got)
	}
	if got := res.Metrics.Final(MetricStartupsInflight); got != 0 {
		t.Errorf("inflight final = %v, want 0", got)
	}
	var a, b bytes.Buffer
	if err := res.Metrics.WriteOpenMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := res.Metrics.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("post-teardown exports differ between calls")
	}
}

// TestStartupHistogramCounts checks the latency histogram saw one
// observation per successful container and its sum is positive.
func TestStartupHistogramCounts(t *testing.T) {
	h := meteredHost(t, DefaultHostSpec(), BaselineFastIOV, nil)
	res := h.StartupExperiment(15)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if h.startupHist == nil {
		t.Fatal("metered host has no startup histogram")
	}
	if got := h.startupHist.Count(); got != 15 {
		t.Errorf("histogram count = %d, want 15", got)
	}
	if h.startupHist.Sum() <= 0 {
		t.Error("histogram sum is not positive")
	}
	if got := res.Metrics.Final("cluster_startup_seconds"); got != 15 {
		t.Errorf("sampled histogram series final = %v, want cumulative count 15", got)
	}
}

// TestMetricsOffLeavesResultBare checks the default path: no registry is
// built, no probe is installed, and the result carries no metrics.
func TestMetricsOffLeavesResultBare(t *testing.T) {
	opts, err := OptionsFor(BaselineVanilla)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 7
	h, err := NewHost(DefaultHostSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if h.Metrics != nil {
		t.Fatal("metrics registry built without Options.Metrics")
	}
	res := h.StartupExperiment(5)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Metrics != nil {
		t.Error("unmetered result carries a registry")
	}
}
