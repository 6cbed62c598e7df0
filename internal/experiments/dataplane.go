package experiments

import (
	"fmt"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/dataplane"
	"fastiov/internal/sim"
	"fastiov/internal/stats"
)

// dpOutcome is one data-plane measurement point: both receive paths at one
// packet size, measured on a freshly booted FastIOV container.
type dpOutcome struct {
	Pass dataplane.Result
	Virt dataplane.Result
}

// stream starts one container on the recipe's host and streams packets
// packets of size bytes through both receive paths into it, then stops
// the container.
func stream(r recipe, packets int, size int64) scenario[*dpOutcome] {
	return scenario[*dpOutcome]{recipe: r, work: "dataplane", args: struct {
		Packets int
		Size    int64
	}{packets, size},
		fingerprint: func(out *dpOutcome) []byte {
			return fmt.Appendf(nil, "pass %+v\nvirt %+v\n", out.Pass, out.Virt)
		},
		run: func(sys system) (*dpOutcome, error) {
			h := sys.host
			var out dpOutcome
			var runErr error
			h.K.Go("dataplane", func(p *sim.Proc) {
				sb, err := h.Eng.RunPodSandbox(p, 0)
				if err != nil {
					runErr = err
					return
				}
				sb.Guest.WaitIfaceReady(p)
				mvm := sb.MVM
				window := int64(16 << 20)
				// Warm the RX window (driver zeroes its ring on allocation).
				if runErr = mvm.VM.TouchRange(p, 0, window, true); runErr != nil {
					return
				}
				pt := &dataplane.Passthrough{
					NIC:    h.NIC,
					Domain: mvm.VFDevice().Domain(),
					Mem:    h.Mem,
					VM:     mvm.VM,
					Costs:  h.Env.Costs,
				}
				if out.Pass, runErr = pt.Stream(p, packets, size, 0, window); runErr != nil {
					return
				}
				vr := &dataplane.Virtio{Mem: h.Mem, VM: mvm.VM, Costs: h.Env.Costs}
				if out.Virt, runErr = vr.Stream(p, packets, size, 0, window); runErr != nil {
					return
				}
				runErr = h.Eng.StopPodSandbox(p, sb)
			})
			h.K.Run()
			return &out, runErr
		}}
}

// DataPlane quantifies the premise of §1: SR-IOV passthrough's data-plane
// advantage over the software (virtio/ipvtap-style) path. It starts one
// FastIOV secure container per packet size, then streams packets through
// both receive paths into the same guest, reporting throughput and latency.
func (x *Exec) DataPlane(packets int, sizes []int64) (*Report, error) {
	if packets <= 0 {
		packets = 50_000
	}
	if len(sizes) == 0 {
		sizes = []int64{64, 1500, 9000}
	}
	// One fresh FastIOV host per point keeps points independent of sweep
	// order. The recipes are pinned: the streams measure the data path
	// alone, so the executor's fault plan and observers do not apply.
	specs := make([]scenario[*dpOutcome], len(sizes))
	for i, size := range sizes {
		r := onHost(cluster.BaselineFastIOV)
		r.pinned = true
		specs[i] = stream(r, packets, size)
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("path", "pkt size", "throughput Gbps", "lat p50", "lat p99")
	rep := &Report{ID: "bg-dataplane", Title: fmt.Sprintf("Data-plane receive path (%d packets per point)", packets), Table: t}
	for i, size := range sizes {
		m := rs[i]
		perSeed := m.PerSeed()
		passGbps := make([]float64, len(perSeed))
		virtGbps := make([]float64, len(perSeed))
		for j, o := range perSeed {
			passGbps[j] = o.Pass.Throughput
			virtGbps[j] = o.Virt.Throughput
		}
		t.AddRow("sriov-passthrough", size, estString(passGbps, 2),
			m.Metric(func(o *dpOutcome) time.Duration { return o.Pass.LatP50 }),
			m.Metric(func(o *dpOutcome) time.Duration { return o.Pass.LatP99 }))
		t.AddRow("software-virtio", size, estString(virtGbps, 2),
			m.Metric(func(o *dpOutcome) time.Duration { return o.Virt.LatP50 }),
			m.Metric(func(o *dpOutcome) time.Duration { return o.Virt.LatP99 }))
	}
	rep.Notes = append(rep.Notes,
		"passthrough avoids the host-stack hop and vhost copy: the §1 rationale for building the CNI on SR-IOV at all")
	seedNote(rep, x, "throughput and latency points")
	return rep, nil
}
