package experiments

import (
	"fmt"

	"fastiov/internal/cluster"
	"fastiov/internal/hostmem"
	"fastiov/internal/serverless"
	"fastiov/internal/stats"
	"fastiov/internal/telemetry"
)

// This file holds ablations beyond the paper's figures, probing the design
// choices DESIGN.md calls out, plus the §7 future-work investigation.

// AblationBusScan probes bottleneck 1's root cause: the vanilla open path
// scans every device on the bus under the devset lock, so the *pre-created
// VF population* — not just the startup concurrency — drives the cost.
func (x *Exec) AblationBusScan(concurrency int, vfCounts []int) (*Report, error) {
	if concurrency <= 0 {
		concurrency = 50
	}
	if len(vfCounts) == 0 {
		vfCounts = []int{64, 128, 256}
	}
	var specs []startupSpec
	for _, vfs := range vfCounts {
		spec := clusterSpecWithVFs(vfs)
		specs = append(specs, startupSpec{bootSpec: bootSpec{Baseline: cluster.BaselineVanilla, Spec: &spec}, N: concurrency})
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("pre-created VFs", "vanilla 4-vfio-dev avg", "vanilla total avg")
	rep := &Report{ID: "abl-busscan", Title: fmt.Sprintf("Devset bus-scan cost vs VF population (concurrency=%d)", concurrency), Table: t}
	for i, vfs := range vfCounts {
		t.AddRow(vfs, stageMean(rs[i], telemetry.StageVFIODev), meanTotal(rs[i]))
	}
	rep.Notes = append(rep.Notes,
		"the open hold time is linear in bus population, so devset cost rises with pre-created VFs even at fixed concurrency (§3.2.2)")
	seedNote(rep, x, "stage and total means")
	return rep, nil
}

// AblationPageSize probes P2 of Fig. 6: fragmented small pages raise
// retrieval cost, which hugepages mitigate. Run on a scaled-down host so
// 4 KiB page metadata stays tractable.
func (x *Exec) AblationPageSize(concurrency int) (*Report, error) {
	if concurrency <= 0 {
		concurrency = 10
	}
	type cfg struct {
		name     string
		pageSize int64
		maxRun   int64
		frag     string
	}
	cfgs := []cfg{
		{"4K", hostmem.PageSize4K, 16, "fragmented"},
		{"4K", hostmem.PageSize4K, 0, "contiguous"},
		{"2M", hostmem.PageSize2M, 0, "contiguous"},
	}
	var specs []startupSpec
	for _, c := range cfgs {
		spec := cluster.DefaultHostSpec()
		spec.Memory.TotalBytes = 16 << 30
		spec.Memory.PageSize = c.pageSize
		spec.Memory.MaxRunPages = c.maxRun
		specs = append(specs, startupSpec{bootSpec: bootSpec{Baseline: cluster.BaselineVanilla, Spec: &spec}, N: concurrency})
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("page size", "fragmentation", "1-dma-ram avg", "total avg")
	rep := &Report{ID: "abl-pagesize", Title: fmt.Sprintf("DMA retrieval vs page size (concurrency=%d)", concurrency), Table: t}
	for i, c := range cfgs {
		t.AddRow(c.name, c.frag, stageMean(rs[i], telemetry.StageDMARAM), meanTotal(rs[i]))
	}
	rep.Notes = append(rep.Notes,
		"hugepages cut the page count 512x, removing the retrieval term; the paper therefore treats P2 as already mitigated (§3.2.3)")
	seedNote(rep, x, "stage and total means")
	return rep, nil
}

// AblationScrubber probes fastiovd's background thread (§5): without it,
// every deferred page's zeroing lands on the application's first-touch
// path, lengthening task completion; with it, idle time absorbs the cost.
func (x *Exec) AblationScrubber(concurrency int) (*Report, error) {
	if concurrency <= 0 {
		concurrency = 50
	}
	settings := []bool{false, true} // scrubber disabled?
	var sspecs []startupSpec
	var cspecs []serverlessSpec
	for _, off := range settings {
		sspecs = append(sspecs, startupSpec{bootSpec: bootSpec{Baseline: cluster.BaselineFastIOV, DisableScrubber: off}, N: concurrency})
		cspecs = append(cspecs, serverlessSpec{bootSpec: bootSpec{Baseline: cluster.BaselineFastIOV, DisableScrubber: off}, N: concurrency, App: serverless.Image})
	}
	startups, err := runAll(x, sspecs)
	if err != nil {
		return nil, err
	}
	comps, err := runAll(x, cspecs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("scrubber", "startup avg", "image-task completion avg")
	rep := &Report{ID: "abl-scrubber", Title: fmt.Sprintf("fastiovd background scrubber (concurrency=%d)", concurrency), Table: t}
	for i, off := range settings {
		label := "on"
		if off {
			label = "off"
		}
		t.AddRow(label, meanTotal(startups[i]), meanCompletion(comps[i]))
	}
	rep.Notes = append(rep.Notes,
		"background clearing overlaps zeroing with other startup stages to reduce the EPT fault time (§5)")
	seedNote(rep, x, "startup and completion means")
	return rep, nil
}

// AblationSlotReset probes the devset premise: if VFs supported slot-level
// reset (they don't on the E810 or IPU E2100, §3.2.2), each would form a
// singleton devset and even the vanilla global-mutex driver would not
// contend across VFs.
func (x *Exec) AblationSlotReset(concurrency int) (*Report, error) {
	if concurrency <= 0 {
		concurrency = 100
	}
	settings := []bool{false, true} // slot reset?
	var specs []startupSpec
	for _, slot := range settings {
		spec := cluster.DefaultHostSpec()
		spec.NIC.SlotReset = slot
		specs = append(specs, startupSpec{bootSpec: bootSpec{Baseline: cluster.BaselineVanilla, Spec: &spec}, N: concurrency})
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("VF reset scope", "4-vfio-dev avg", "total avg")
	rep := &Report{ID: "abl-slotreset", Title: fmt.Sprintf("Devset contention vs reset capability (concurrency=%d)", concurrency), Table: t}
	for i, slot := range settings {
		label := "bus (shared devset)"
		if slot {
			label = "slot (singleton devsets)"
		}
		t.AddRow(label, stageMean(rs[i], telemetry.StageVFIODev), meanTotal(rs[i]))
	}
	rep.Notes = append(rep.Notes,
		"slot-reset-capable VFs would dissolve the shared devset and with it bottleneck 1 — but such capability is uncommon on modern NICs (§3.2.2)")
	seedNote(rep, x, "stage and total means")
	return rep, nil
}

// FutureVDPA investigates §7's future-work direction: replacing the
// vendor passthrough control plane with vhost-vdpa. The per-device char
// device sidesteps the devset lock entirely, but DMA mapping — and with it
// the zeroing cost — is unchanged, so vDPA alone recovers only part of
// FastIOV's gain.
func (x *Exec) FutureVDPA(n int) (*Report, error) {
	if n <= 0 {
		n = DefaultConcurrency
	}
	names := []string{cluster.BaselineVanilla, cluster.BaselineVDPA, cluster.BaselineFastIOV}
	var specs []startupSpec
	for _, name := range names {
		specs = append(specs, startupSpec{bootSpec: bootSpec{Baseline: name}, N: n})
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("configuration", "avg total", "VF/control-plane avg", "reduction vs vanilla %")
	rep := &Report{ID: "future-vdpa", Title: fmt.Sprintf("vDPA control plane (§7 future work), concurrency=%d", n), Table: t}
	vanilla := rs[0]
	for i, name := range names {
		// Reduction from paired per-seed differences against vanilla.
		perSeed := make([]float64, len(rs[i].PerSeed()))
		for k, r := range rs[i].PerSeed() {
			perSeed[k] = 100 * stats.ReductionRatio(vanilla.PerSeed()[k].Totals.Mean(), r.Totals.Mean())
		}
		t.AddRow(name, meanTotal(rs[i]), meanVFRelated(rs[i]), pctString(perSeed))
	}
	rep.Notes = append(rep.Notes,
		"vDPA removes the devset-lock serialization but keeps eager DMA-mapping zeroing; FastIOV's decoupled zeroing remains necessary for the full gain")
	seedNote(rep, x, "totals and reductions")
	return rep, nil
}

// run is runWithSpec on the default host spec.
func run(name string, n int, mutate func(*cluster.Options)) (*cluster.Result, error) {
	return runWithSpec(name, n, cluster.DefaultHostSpec(), mutate)
}

// runWithSpec runs one startup scenario with a HostSpec override directly
// (no pool, no cache), returning the raw result — retained for tests that
// need per-stage access rather than a rendered report.
func runWithSpec(name string, n int, spec cluster.HostSpec, mutate func(*cluster.Options)) (*cluster.Result, error) {
	opts, err := cluster.OptionsFor(name)
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(&opts)
	}
	h, err := cluster.NewHost(spec, opts)
	if err != nil {
		return nil, err
	}
	res := h.StartupExperiment(n)
	if res.Err != nil {
		return nil, fmt.Errorf("%s: %w", name, res.Err)
	}
	return res, nil
}

// clusterSpecWithVFs returns the default spec with an overridden VF count
// (test helper shared by the ablation tests).
func clusterSpecWithVFs(vfs int) cluster.HostSpec {
	spec := cluster.DefaultHostSpec()
	spec.NumVFs = vfs
	return spec
}
