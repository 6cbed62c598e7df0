package main

import "fastiov"

// layerMetric is one per-layer metric of the traced run and where its
// value comes from.
type layerMetric struct {
	name, unit string
	value      func(tr *tracer, ls *layers, p *profileFold) float64
}

// counter is a per-layer metric taken as the median of its samples.
func counter(name, unit string) layerMetric {
	return layerMetric{name, unit, func(_ *tracer, ls *layers, _ *profileFold) float64 { return ls.median(name) }}
}

// call is a per-layer timing: the median duration of the spans of one API
// call, optionally restricted to one argument (a baseline or experiment).
func call(name, span, arg string) layerMetric {
	return layerMetric{name, "s", func(tr *tracer, _ *layers, _ *profileFold) float64 { return tr.median(span, arg) }}
}

// share is a CPU-profile share in percent.
func share(name string, n func(p *profileFold) int64) layerMetric {
	return layerMetric{name, "%", func(_ *tracer, _ *layers, p *profileFold) float64 { return p.pct(n(p)) }}
}

// profiledLayers are the module packages whose CPU share the traced run
// reports.
var profiledLayers = []string{
	"sim", "cluster", "vfio", "iommu", "pagetab", "hostmem", "kvm", "fastiovd", "cri", "cni",
	"fleet", "serve", "trace", "metrics", "journey", "harness", "experiments",
}

// perLayerMetrics lists the traced run's metrics in report order. A layer
// the workload does not enter reports 0.
func perLayerMetrics() []layerMetric {
	ms := []layerMetric{
		// sim: the discrete-event kernel.
		counter("sim.events", "count"),
		counter("sim.procs", "count"),
		counter("sim.ns_per_event", "ns"),
		counter("sim.block.sleep", "count"),
		counter("sim.block.mutex", "count"),
		counter("sim.block.resource", "count"),
		counter("sim.block.queue", "count"),
		counter("sim.block.event", "count"),
		counter("sim.block.wg", "count"),
		counter("sim.acquire", "count"),
		counter("sim.wake", "count"),
		// cluster: host boot, snapshots and the startup wave.
		call("cluster.boot_s", "cluster.NewHost", ""),
		call("cluster.capture_s", "cluster.CaptureSnapshot", ""),
		call("cluster.restore_s", "cluster.RestoreSnapshot", ""),
		call("cluster.startup_s.vanilla", "cluster.Host.StartupExperiment", "vanilla"),
		call("cluster.startup_s.fastiov", "cluster.Host.StartupExperiment", "fastiov"),
		counter("cluster.allocs.vanilla", "count"),
		counter("cluster.allocs.fastiov", "count"),
		// substrate work counts (simulated work; they must never move).
		counter("fastiovd.lazy_zeroed", "count"),
		counter("fastiovd.scrub_zeroed", "count"),
		counter("fastiovd.instant_zeroed", "count"),
		counter("kvm.ept_violations", "count"),
		counter("hostmem.zeroed_bytes", "bytes"),
		counter("vfio.devset_queue_peak", "count"),
		// fleet: boot and placement.
		call("fleet.new_s", "fleet.New", ""),
		call("fleet.run_s", "fleet.Fleet.Run", ""),
		counter("fleet.place_calls", "count"),
		counter("fleet.place_s", "s"),
		counter("fleet.place_ns_per_call", "ns"),
		counter("fleet.rejected", "count"),
		// serve: the admission control plane.
		call("serve.new_s", "serve.New", ""),
		call("serve.run_s.vanilla", "serve.Server.Run", "vanilla"),
		call("serve.run_s.fastiov", "serve.Server.Run", "fastiov"),
		counter("serve.arrived", "count"),
		counter("serve.completed", "count"),
		counter("serve.shed", "count"),
		// observers: each alone against all off, then their work and exports.
		counter("obs.overhead_s.trace", "s"),
		counter("obs.overhead_s.metrics", "s"),
		counter("obs.overhead_s.journeys", "s"),
		counter("obs.overhead_s.all", "s"),
		counter("obs.retained_mb.off", "MB"),
		counter("obs.retained_mb.trace", "MB"),
		counter("obs.retained_mb.metrics", "MB"),
		counter("obs.retained_mb.journeys", "MB"),
		counter("obs.retained_mb.all", "MB"),
		counter("trace.events", "count"),
		counter("journey.spans", "count"),
		counter("metrics.samples", "count"),
		call("journey.write_log_s", "journey.Recorder.WriteLog", ""),
		call("journey.write_chrome_s", "journey.Recorder.WriteChrome", ""),
		call("metrics.write_openmetrics_s", "metrics.Registry.WriteOpenMetrics", ""),
		// harness: the scenario cache; hit_ratio = cache_hits / requests.
		counter("harness.sim_runs", "count"),
		counter("harness.cache_hits", "count"),
		counter("harness.requests", "count"),
		counter("harness.hit_ratio", "ratio"),
	}
	// experiments: one timing per registry entry.
	for _, x := range fastiov.Experiments() {
		ms = append(ms, call("experiments."+x.ID+"_s", "fastiov.Suite.Run", x.ID))
	}
	// CPU profile: samples folded by package, plus the runtime's collector
	// and allocator.
	ms = append(ms, layerMetric{"prof.samples", "count", func(_ *tracer, _ *layers, p *profileFold) float64 { return float64(p.samples) }})
	for _, l := range profiledLayers {
		l := l
		ms = append(ms,
			share("prof."+l+".self_pct", func(p *profileFold) int64 { return p.self[l] }),
			share("prof."+l+".cum_pct", func(p *profileFold) int64 { return p.cum[l] }))
	}
	ms = append(ms,
		share("prof.runtime.gc_pct", func(p *profileFold) int64 { return p.gc }),
		share("prof.runtime.malloc_pct", func(p *profileFold) int64 { return p.malloc }),
		// The traced run's own cost: traced minus untraced run_s.
		counter("bench.overhead_s", "s"),
		counter("bench.overhead_pct", "%"),
	)
	return ms
}
