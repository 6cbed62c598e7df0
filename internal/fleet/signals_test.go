package fleet

import (
	"fmt"
	"testing"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
	"fastiov/internal/vfio"
)

// The tests below chain the original probe-fed watchers (signals_ref_test.go)
// onto runs and require the primitive-kept signals to equal them after
// every kernel event, at every placement, and at Finish/Seal.

// fleetRef is the reference model for one fleet: one resource and one queue
// watch per host scope, reset at each host crash exactly as the fleet used
// to reset them.
type fleetRef struct {
	f      *Fleet
	reg    *watchRegistry
	membw  []*ResourceWatch
	queues []*QueueWatch
	resets int // ledger entries already applied
}

func newFleetRef(f *Fleet) *fleetRef {
	r := &fleetRef{f: f, reg: newWatchRegistry()}
	for i := range f.Hosts {
		r.membw = append(r.membw, r.reg.WatchResource(Scope(i)+hostmem.MemBWName))
		r.queues = append(r.queues, r.reg.WatchLockQueue(Scope(i)+vfio.DevsetLockPrefix))
	}
	return r
}

// sync applies the watcher reset of every crash recorded since the last
// call, at its crash instant. A crash records its ledger entry right after
// the point where the fleet reset its watchers, so applying it before the
// next probe event reproduces the original order.
func (r *fleetRef) sync() {
	for ; r.resets < r.f.ledger.Len(); r.resets++ {
		e := r.f.ledger.Entries[r.resets]
		r.membw[e.Host].Reset(e.At)
		r.queues[e.Host].Reset()
	}
}

// check compares every host's signals with the reference.
func (r *fleetRef) check(t *testing.T, when string) {
	t.Helper()
	r.sync()
	for i := range r.f.signals {
		d, p, b := r.f.signals[i].read()
		if want := r.queues[i].Depth(); d != want {
			t.Fatalf("%s: host %d queue depth %d, reference %d", when, i, d, want)
		}
		if want := r.queues[i].Peak(); p != want {
			t.Fatalf("%s: host %d queue peak %d, reference %d", when, i, p, want)
		}
		if want := r.membw[i].Busy(); b != want {
			t.Fatalf("%s: host %d membw busy %v, reference %v", when, i, b, want)
		}
	}
}

// runFleetAgainstRef runs cfg with the reference chained and checks the
// signals after every event, the HostStates at every placement, and the
// Result and sealed registry at Finish. It reports whether some host ended
// with a release the reference never saw: a scrubber unwound during the
// kernel's closing abort, which must not be charged.
func runFleetAgainstRef(t *testing.T, cfg Config) (res *Result, uncharged bool) {
	t.Helper()
	var ref *fleetRef
	cfg.Metrics = true
	cfg.OnPlace = func(at time.Duration, id int, st HostState, _ float64, _ bool) {
		when := fmt.Sprintf("dispatch %d at %v", id, at)
		ref.check(t, when)
		for i, s := range ref.f.States() {
			if s.QueueDepth != ref.queues[i].Depth() || s.MembwBusy != ref.membw[i].Busy() {
				t.Fatalf("%s: host %d state depth/busy %d/%v, reference %d/%v",
					when, i, s.QueueDepth, s.MembwBusy, ref.queues[i].Depth(), ref.membw[i].Busy())
			}
		}
		if st.QueueDepth != ref.queues[st.Index].Depth() || st.MembwBusy != ref.membw[st.Index].Busy() {
			t.Fatalf("%s: placed host %d state disagrees with the reference", when, st.Index)
		}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref = newFleetRef(f)
	obs := ref.reg.Observer()
	f.K.ChainProbe(func(at sim.Duration, ev sim.ProbeEvent) {
		ref.sync()
		obs(at, ev)
		ref.check(t, fmt.Sprintf("%s %s at %v", ev.Kind, ev.Obj, at))
	})
	res = f.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	ref.check(t, "finish")
	depth := 0
	for i, h := range f.Hosts {
		if h.Mem.Bandwidth().InUse() != ref.membw[i].InUse() {
			uncharged = true
		}
		if res.QueuePeaks[i] != ref.queues[i].Peak() || res.MembwBusy[i] != ref.membw[i].Busy() {
			t.Fatalf("host %d result peak/busy %d/%v, reference %d/%v",
				i, res.QueuePeaks[i], res.MembwBusy[i], ref.queues[i].Peak(), ref.membw[i].Busy())
		}
		depth += ref.queues[i].Depth()
	}
	if got := res.Metrics.Final(MetricFleetQueueDepth); got != float64(depth) {
		t.Fatalf("sealed %s = %v, reference %d", MetricFleetQueueDepth, got, depth)
	}
	return res, uncharged
}

func TestSignalsMatchReferenceFleet(t *testing.T) {
	for _, tc := range []struct{ name, faults string }{
		{"host-crash", "host-crash@600ms:host=0;host-recover=300ms"},
		{"crash-dma", "crash@dma:p=0.2;vfio-reset:p=0.1"},
	} {
		plan, err := fault.ParsePlan(tc.faults)
		if err != nil {
			t.Fatal(err)
		}
		for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
			t.Run(tc.name+"/"+baseline, func(t *testing.T) {
				res, uncharged := runFleetAgainstRef(t, Config{
					Baseline:  baseline,
					Policy:    PolicyLeastLoaded,
					HostSpecs: HeterogeneousSpecs(4),
					Requests:  200,
					Seed:      1,
					Faults:    plan,
				})
				if baseline == cluster.BaselineFastIOV && !uncharged {
					t.Fatal("no scrubber release ran during the closing abort: the abort guard is untested")
				}
				if tc.name == "host-crash" && (res.HostCrashes != 1 || len(res.Recoveries) != 1) {
					t.Fatalf("crashes/recoveries = %d/%d, want 1/1", res.HostCrashes, len(res.Recoveries))
				}
				if baseline == cluster.BaselineVanilla && res.MaxQueuePeak() == 0 {
					t.Fatal("no devset queue formed: the comparison is vacuous")
				}
			})
		}
	}
}

// TestSignalsMatchReferenceHost runs a metered paper-scale host (c=200)
// and compares the driver and bandwidth counters after every event, the
// sampled series at every tick, and the sealed finals.
func TestSignalsMatchReferenceHost(t *testing.T) {
	for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		t.Run(baseline, func(t *testing.T) {
			opts, err := cluster.OptionsFor(baseline)
			if err != nil {
				t.Fatal(err)
			}
			opts.Metrics = true
			h, err := cluster.NewHost(cluster.DefaultHostSpec(), opts)
			if err != nil {
				t.Fatal(err)
			}
			reg := newWatchRegistry()
			w := reg.WatchResource(hostmem.MemBWName)
			q := reg.WatchLockQueue(vfio.DevsetLockPrefix)
			obs := reg.Observer()
			waits, bw := h.VFIO.DevsetWaits(), h.Mem.Bandwidth()
			h.K.ChainProbe(func(at sim.Duration, ev sim.ProbeEvent) {
				obs(at, ev)
				if waits.Depth() != q.Depth() || waits.Peak() != q.Peak() || bw.Busy() != w.Busy() {
					t.Fatalf("%s %s at %v: depth/peak/busy %d/%d/%v, reference %d/%d/%v", ev.Kind, ev.Obj, at,
						waits.Depth(), waits.Peak(), bw.Busy(), q.Depth(), q.Peak(), w.Busy())
				}
			})
			h.Metrics.GaugeFunc("ref_devset_depth", "reference", nil, func() float64 { return float64(q.Depth()) })
			h.Metrics.CounterFunc("ref_membw_busy_total", "reference", nil, func() float64 { return w.Busy().Seconds() })

			res := h.StartupExperiment(200)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			// The reference saw no release during the closing abort, so
			// through the last change the integrals agree only if the
			// primitive did not charge it either.
			if bw.Busy() != w.Busy() {
				t.Fatalf("busy after the run = %v, reference %v", bw.Busy(), w.Busy())
			}
			if baseline == cluster.BaselineFastIOV && bw.InUse() == w.InUse() {
				t.Fatal("no scrubber release ran during the closing abort: the abort guard is untested")
			}
			reg.Seal(res.Metrics.End())
			m := res.Metrics
			for _, pair := range [][2]string{
				{cluster.MetricDevsetQueueDepth, "ref_devset_depth"},
				{cluster.MetricMembwBusy, "ref_membw_busy_total"},
			} {
				got, want := m.Series(pair[0]), m.Series(pair[1])
				if len(got) == 0 || len(got) != len(want) {
					t.Fatalf("%s: %d samples, reference %d", pair[0], len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s sample %d at %v = %v, reference %v", pair[0], i, m.Times()[i], got[i], want[i])
					}
				}
			}
			if got, want := m.Final(cluster.MetricMembwBusy), reg.BusyIntegral(hostmem.MemBWName).Seconds(); got != want {
				t.Fatalf("sealed membw busy = %v, reference %v", got, want)
			}
			if got, want := m.Final(cluster.MetricDevsetQueuePeak), float64(reg.QueuePeak(vfio.DevsetLockPrefix)); got != want {
				t.Fatalf("sealed devset peak = %v, reference %v", got, want)
			}
			if got, want := m.Final(cluster.MetricDevsetQueueDepth), float64(q.Depth()); got != want {
				t.Fatalf("sealed devset depth = %v, reference %v", got, want)
			}
		})
	}
}

// TestSignalsMatchReferenceMultiDevset queues waiters on two devsets of one
// driver at once, under both lock disciplines: the driver's tally must be
// the sum over its devset locks, with the peak taken over that sum.
func TestSignalsMatchReferenceMultiDevset(t *testing.T) {
	for _, mode := range []vfio.LockMode{vfio.LockGlobal, vfio.LockParentChild} {
		t.Run(mode.String(), func(t *testing.T) {
			k := sim.NewKernel(1)
			topo := pci.NewTopology()
			mem := hostmem.New(k, hostmem.Config{TotalBytes: 1 << 30, PageSize: hostmem.PageSize2M, ZeroStreams: 1, ZeroBytesPerSec: 10 << 30})
			drv := vfio.New(k, topo, mem, iommu.New(k, mem.PageSize()), mode, vfio.DefaultCosts())
			sets := map[*vfio.DevSet][]*vfio.Device{}
			var order []*vfio.DevSet
			for bus := 1; bus <= 2; bus++ {
				for dev := 0; dev < 4; dev++ {
					d := topo.AddDevice(&pci.Device{Addr: pci.BDF{Bus: bus, Dev: dev}, Reset: pci.ResetBus})
					d.BindBoot("vfio-pci")
					vd, err := drv.Register(d)
					if err != nil {
						t.Fatal(err)
					}
					if sets[vd.Set] == nil {
						order = append(order, vd.Set)
					}
					sets[vd.Set] = append(sets[vd.Set], vd)
				}
			}
			reg := newWatchRegistry()
			q := reg.WatchLockQueue(vfio.DevsetLockPrefix)
			obs := reg.Observer()
			waits := drv.DevsetWaits()
			k.ChainProbe(func(at sim.Duration, ev sim.ProbeEvent) {
				obs(at, ev)
				if waits.Depth() != q.Depth() || waits.Peak() != q.Peak() {
					t.Fatalf("%s %s at %v: depth/peak %d/%d, reference %d/%d",
						ev.Kind, ev.Obj, at, waits.Depth(), waits.Peak(), q.Depth(), q.Peak())
				}
			})
			// A devset reset holds each set exclusively while its members'
			// opens queue behind it, on both sets at once.
			for _, s := range order {
				s := s
				k.Go("reset", func(p *sim.Proc) {
					if err := drv.ResetSet(p, s); err != nil {
						t.Error(err)
					}
				})
			}
			for _, s := range order {
				for _, vd := range sets[s] {
					vd := vd
					k.Go("open", func(p *sim.Proc) {
						drv.Open(p, vd)
						drv.Close(p, vd)
					})
				}
			}
			k.Run()
			if q.Peak() != 8 || waits.Peak() != 8 || waits.Depth() != 0 {
				t.Fatalf("peak %d (reference %d), depth %d; want 8 queued across both devsets, 0 left",
					waits.Peak(), q.Peak(), waits.Depth())
			}
		})
	}
}
