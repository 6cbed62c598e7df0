// Host-wide metrics instrumentation: every substrate registers read-only
// gauges and counters with the simulated-time registry (internal/metrics).
// Instruments are closures over live substrate state — registration and
// sampling consume no simulated time and no PRNG draws, so metrics-enabled
// runs stay byte-identical to metrics-off runs. The saturation signals
// come from the primitives that own them: the zeroing-bandwidth
// sim.Resource keeps its busy integral and the vfio driver its devset
// waiter tally, both exact at every transition. No kernel probe is
// installed for metrics.
package cluster

import (
	"fmt"

	"fastiov/internal/hostmem"
	"fastiov/internal/metrics"
	"fastiov/internal/telemetry"
)

// Instrument ids shared with the saturation experiment and the conservation
// tests. Labelled instruments (free pages) derive their ids at registration.
const (
	MetricMembwInUse       = "hostmem_membw_streams_in_use"
	MetricMembwUtil        = "hostmem_membw_utilization_pct"
	MetricMembwBusy        = "hostmem_membw_busy_stream_seconds_total"
	MetricZeroedBytes      = "hostmem_zeroed_bytes_total"
	MetricDirtyPages       = "hostmem_dirty_pages"
	MetricPinnedPages      = "hostmem_pinned_pages"
	MetricDevsetQueueDepth = "vfio_devset_queue_depth"
	MetricDevsetQueuePeak  = "vfio_devset_queue_peak"
	MetricStartupsInflight = "cluster_startups_inflight"
)

// SaturationPanels lists the dashboard series the saturation experiment
// renders, common to every baseline (fastiovd-specific series are skipped
// on hosts without the module).
func SaturationPanels() []string {
	return []string{
		MetricDevsetQueueDepth,
		MetricMembwUtil,
		MetricDirtyPages,
		MetricStartupsInflight,
	}
}

// pageSizeLabel renders a page size the way operators name it.
func pageSizeLabel(bytes int64) string {
	switch bytes {
	case hostmem.PageSize4K:
		return "4K"
	case hostmem.PageSize2M:
		return "2M"
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}

// attachMetrics registers every host instrument with h.Metrics.
func (h *Host) attachMetrics() {
	m := h.Metrics

	// hostmem: allocator and zeroing-bandwidth saturation. The busy
	// integral is kept by the resource at every acquire and release, so
	// conservation properties hold exactly, not just at sample instants.
	// Samples read it through the last change; the sealed final extends
	// it to the end of the measured phase.
	mem := h.Mem
	bw := mem.Bandwidth()
	m.GaugeFunc(MetricMembwInUse, "zeroing-bandwidth streams currently held", nil,
		func() float64 { return float64(bw.InUse()) })
	m.GaugeFunc(MetricMembwUtil, "zeroing-bandwidth utilization in percent of stream capacity", nil,
		func() float64 { return 100 * float64(bw.InUse()) / float64(bw.Cap()) })
	m.CounterFunc(MetricMembwBusy, "accumulated busy time across zeroing-bandwidth streams in stream-seconds", nil,
		func() float64 {
			if m.Sealed() {
				return bw.BusyAt(m.End()).Seconds()
			}
			return bw.Busy().Seconds()
		})
	m.GaugeFunc("hostmem_free_pages", "free physical pages",
		[]metrics.Label{{Key: "size", Value: pageSizeLabel(mem.PageSize())}},
		func() float64 { return float64(mem.FreePages()) })
	m.GaugeFunc(MetricDirtyPages, "pages holding residual data from a previous owner (the zeroing backlog)", nil,
		func() float64 { return float64(mem.DirtyPages()) })
	m.GaugeFunc(MetricPinnedPages, "pages with a live pin refcount", nil,
		func() float64 { return float64(mem.PinnedPages()) })
	m.CounterFunc(MetricZeroedBytes, "bytes cleared by the zeroing engine", nil,
		func() float64 { return float64(mem.ZeroedBytes) })

	// vfio: devset serialization (the paper's §3.2 bottleneck) and device
	// lifecycle. The driver's waiter tally sums every devset lock and is
	// exact at every park and handoff.
	q := h.VFIO.DevsetWaits()
	m.GaugeFunc(MetricDevsetQueueDepth, "containers queued on a vfio devset lock", nil,
		func() float64 { return float64(q.Depth()) })
	m.GaugeFunc(MetricDevsetQueuePeak, "maximum observed vfio devset lock queue depth", nil,
		func() float64 { return float64(q.Peak()) })
	m.GaugeFunc("vfio_open_fds", "open vfio device fds host-wide", nil,
		func() float64 { return float64(h.VFIO.TotalOpens()) })
	m.CounterFunc("vfio_flr_retries_total", "function-level resets reissued after injected failures", nil,
		func() float64 { return float64(h.VFIO.Stats.ResetRetries) })

	// fastiovd: the decoupled-zeroing data plane (absent on non-lazy
	// baselines).
	if h.Lazy != nil {
		lazy := h.Lazy
		m.GaugeFunc("fastiovd_deferred_pages", "pages tracked in fastiovd tables awaiting zeroing", nil,
			func() float64 { return float64(lazy.TrackedTotal()) })
		m.GaugeFunc("fastiovd_scrub_queue", "pages queued for the background scrubber (the instant-zeroing list)", nil,
			func() float64 { return float64(lazy.ScrubQueueLen()) })
		m.CounterFunc("fastiovd_lazy_zeroed_total", "pages zeroed proactively at EPT-fault time", nil,
			func() float64 { return float64(lazy.LazyZeroed) })
		m.CounterFunc("fastiovd_scrub_zeroed_total", "pages zeroed by the background scrubber", nil,
			func() float64 { return float64(lazy.ScrubZeroed) })
		m.CounterFunc("fastiovd_instant_zeroed_total", "pages zeroed synchronously on instant registration", nil,
			func() float64 { return float64(lazy.InstantZeroed) })
		m.CounterFunc("fastiovd_scrubber_stalls_total", "scrubber wakes lost to injected stalls", nil,
			func() float64 { return float64(lazy.ScrubberStalls) })
	}

	// kvm + iommu: demand-paging pressure and DMA mapping footprint.
	m.CounterFunc("kvm_ept_violations_total", "EPT violations taken across all VMs", nil,
		func() float64 { return float64(h.KVM.TotalFaults) })
	m.GaugeFunc("kvm_live_vms", "microVMs currently registered with KVM", nil,
		func() float64 { return float64(h.KVM.LiveVMs()) })
	m.GaugeFunc("iommu_mapped_pages", "live IOMMU-mapped (DMA-pinned) pages", nil,
		func() float64 { return float64(h.MMU.TotalMappedPages()) })
	m.GaugeFunc("iommu_domains", "live IOMMU domains", nil,
		func() float64 { return float64(h.MMU.Domains()) })

	// cluster: the startup wave itself. h.Rec is read through the field so
	// churn's per-wave recorder swaps stay visible.
	m.GaugeFunc(MetricStartupsInflight, "container startups currently in progress", nil,
		func() float64 { return float64(h.wave.inflight) })
	m.CounterFunc("cluster_startups_started_total", "container startups launched", nil,
		func() float64 { return float64(h.wave.started) })
	m.CounterFunc("cluster_startups_failed_total", "container startups lost to injected faults", nil,
		func() float64 { return float64(h.wave.failed) })
	m.CounterFunc("cluster_rollbacks_total", "compensating rollbacks recorded by telemetry", nil,
		func() float64 {
			n, _ := h.Rec.StageTotal(telemetry.StageRollback)
			return float64(n)
		})
	h.startupHist = m.NewHistogram("cluster_startup_seconds", "end-to-end container startup latency", nil,
		[]float64{0.25, 0.5, 1, 2, 4, 8, 16, 32})
}
