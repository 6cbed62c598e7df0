package vfio

import (
	"strconv"
	"testing"

	"fastiov/internal/cost"
	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/nic"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
)

// eagerVF is the reference model's record of one VF: what host boot used
// to build for every VF up front.
type eagerVF struct {
	registered        bool
	group, set, opens int
	vf                *nic.VF // the lease's record
	vd                *Device // the VF's registration record, once seen
}

// eagerTable is the reference model of a host's VF table: a free FIFO
// filled with every VF in number order and registration ordinals handed
// out one VF at a time, as the per-VF boot loop did.
type eagerTable struct {
	vfs                []eagerVF
	free               []int
	nextGroup, nextSet int
	busSet             int // the bus devset's id, 0 before it exists
	registered, opens  int
	slotReset          bool
}

func newEagerTable(n int, slotReset, boot bool) *eagerTable {
	m := &eagerTable{vfs: make([]eagerVF, n), slotReset: slotReset}
	for i := range n {
		m.free = append(m.free, i)
		if boot {
			m.register(i)
		}
	}
	return m
}

// register gives VF i the next registration ordinals.
func (m *eagerTable) register(i int) {
	v := &m.vfs[i]
	if m.slotReset {
		m.nextSet++
		v.set = m.nextSet
	} else {
		if m.busSet == 0 {
			m.nextSet++
			m.busSet = m.nextSet
		}
		v.set = m.busSet
	}
	m.nextGroup++
	v.group, v.registered = m.nextGroup, true
	m.registered++
}

// FuzzVFTableMatchesEager drives a host's VF table (the NIC's free list and
// lazily built VF records, the VFIO driver's count-based boot registration
// and lazily built Devices) through leases, releases, rebind-style
// unregister/register and device opens and closes, and compares it after
// every step with an eager model of every VF: FreeVFs, hand-out order and
// names, RegisteredCount, TotalOpens, Lookup identity, group and devset
// ids, devset member counts and the bus population.
//
// Byte 0 picks the VF count (bits 2-7), slot-level reset (bit 0) and
// whether the VFs are registered at boot (bit 1, the fixed CNIs) or left
// unbound (the rebinding CNI). Each later pair of bytes is an operation
// and the VF it picks.
func FuzzVFTableMatchesEager(f *testing.F) {
	f.Add([]byte{2<<2 | 2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{3<<2 | 3, 0, 0, 0, 0, 4, 0, 4, 1, 5, 0, 2, 1, 1, 0, 3, 0, 4, 0, 0, 0})
	f.Add([]byte{4 << 2, 0, 0, 0, 0, 3, 0, 3, 1, 4, 1, 5, 1, 2, 1, 1, 1, 0, 0, 3, 0, 1, 0, 0, 0})
	f.Add([]byte{5<<2 | 1, 0, 0, 0, 0, 0, 0, 3, 2, 1, 1, 1, 0, 0, 0, 0, 0, 3, 0})
	// A long script: every operation, with VFs freed out of order.
	script := []byte{6<<2 | 2}
	x := uint32(7)
	for range 400 {
		x = x*1664525 + 1013904223
		script = append(script, byte(x>>24), byte(x>>16))
	}
	f.Add(script)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]>>2)%24
		slotReset, boot := data[0]&1 != 0, data[0]&2 != 0
		k := sim.NewKernel()
		c := cost.Default()
		topo := pci.NewTopology()
		mem := hostmem.New(k, hostmem.Config{TotalBytes: 1 << 30, PageSize: hostmem.PageSize2M}, c)
		cfg := nic.DefaultConfig()
		cfg.SlotReset = slotReset
		card := nic.New(k, topo, cfg, &c)
		if err := card.CreateVFs(n, topo); err != nil {
			t.Fatal(err)
		}
		drv := New(k, topo, mem, iommu.New(k, mem.PageSize(), &c), LockParentChild, &c)
		if boot {
			card.VFBlock().BindBoot("vfio-pci")
			if err := drv.RegisterVFs(card.VFBlock()); err != nil {
				t.Fatal(err)
			}
		}
		m := newEagerTable(n, slotReset, boot)
		var leased []int // VF numbers, in lease order

		compare := func(step int) {
			t.Helper()
			if got, want := card.FreeVFs(), len(m.free); got != want {
				t.Fatalf("step %d: FreeVFs %d, want %d", step, got, want)
			}
			if got := drv.RegisteredCount(); got != m.registered {
				t.Fatalf("step %d: RegisteredCount %d, want %d", step, got, m.registered)
			}
			if got := drv.TotalOpens(); got != m.opens {
				t.Fatalf("step %d: TotalOpens %d, want %d", step, got, m.opens)
			}
			if got := card.PF().Bus().Population(); got != 1+n {
				t.Fatalf("step %d: bus population %d, want %d", step, got, 1+n)
			}
			for _, i := range leased {
				v := &m.vfs[i]
				vd, ok := drv.Lookup(v.vf.Dev)
				if ok != v.registered {
					t.Fatalf("step %d: VF %d: Lookup ok %v, want %v", step, i, ok, v.registered)
				}
				if !ok {
					continue
				}
				if v.vd == nil {
					v.vd = vd
				}
				wantMembers := 1
				if !slotReset {
					wantMembers = m.registered
				}
				switch {
				case vd != v.vd:
					t.Fatalf("step %d: VF %d: Lookup returned a new Device", step, i)
				case vd.PDev != v.vf.Dev:
					t.Fatalf("step %d: VF %d: Device of %s", step, i, vd.PDev.Addr)
				case vd.Group().ID != v.group || vd.Set.ID != v.set:
					t.Fatalf("step %d: VF %d: group %d devset %d, want %d %d", step, i, vd.Group().ID, vd.Set.ID, v.group, v.set)
				case vd.OpenCount() != v.opens:
					t.Fatalf("step %d: VF %d: %d opens, want %d", step, i, vd.OpenCount(), v.opens)
				case vd.Set.Members() != wantMembers:
					t.Fatalf("step %d: VF %d: devset has %d members, want %d", step, i, vd.Set.Members(), wantMembers)
				}
			}
		}
		// pick returns the leased VF that b selects among those ok
		// accepts, or -1.
		pick := func(b byte, ok func(v *eagerVF) bool) int {
			var c []int
			for _, i := range leased {
				if ok(&m.vfs[i]) {
					c = append(c, i)
				}
			}
			if len(c) == 0 {
				return -1
			}
			return c[int(b)%len(c)]
		}
		lookup := func(i int) *Device {
			vd, ok := drv.Lookup(m.vfs[i].vf.Dev)
			if !ok {
				t.Fatalf("VF %d: lost registration", i)
			}
			return vd
		}
		closeAll := func(p *sim.Proc, i int) {
			v := &m.vfs[i]
			for ; v.opens > 0; v.opens-- {
				drv.Close(p, lookup(i))
				m.opens--
			}
		}

		k.Go("script", func(p *sim.Proc) {
			compare(0)
			for s, ops := 1, data[1:]; len(ops) >= 2; s, ops = s+1, ops[2:] {
				op, b := ops[0]%6, ops[1]
				switch op {
				case 0: // lease
					vf, err := card.AllocVF()
					if len(m.free) == 0 {
						if err == nil {
							t.Fatalf("step %d: leased %s from an empty pool", s, vf.Name())
						}
						break
					}
					i := m.free[0]
					m.free = m.free[1:]
					if err != nil {
						t.Fatalf("step %d: AllocVF: %v; want VF %d", s, err, i)
					}
					if vf.Index != i || vf.Name() != "e810-vf"+strconv.Itoa(i) || !vf.Assigned {
						t.Fatalf("step %d: AllocVF = %s (assigned %v); want VF %d", s, vf.Name(), vf.Assigned, i)
					}
					if v := &m.vfs[i]; v.vf != nil && v.vf != vf {
						t.Fatalf("step %d: VF %d has a new record", s, i)
					}
					m.vfs[i].vf = vf
					leased = append(leased, i)
				case 1: // release, after closing the VF's opens
					i := pick(b, func(*eagerVF) bool { return true })
					if i < 0 {
						break
					}
					closeAll(p, i)
					card.ReleaseVF(m.vfs[i].vf)
					m.free = append(m.free, i)
					for j, l := range leased {
						if l == i {
							leased = append(leased[:j], leased[j+1:]...)
							break
						}
					}
				case 2: // rebind teardown: close, unregister, unbind
					i := pick(b, func(v *eagerVF) bool { return v.registered })
					if i < 0 {
						break
					}
					closeAll(p, i)
					if err := drv.Unregister(lookup(i)); err != nil {
						t.Fatalf("step %d: VF %d: %v", s, i, err)
					}
					m.vfs[i].vf.Dev.Unbind(p, 0)
					m.vfs[i].registered = false
					m.registered--
				case 3: // rebind start: bind vfio-pci and register
					i := pick(b, func(v *eagerVF) bool { return true })
					if i < 0 {
						break
					}
					v := &m.vfs[i]
					if v.registered {
						if _, err := drv.Register(v.vf.Dev); err == nil {
							t.Fatalf("step %d: VF %d registered twice", s, i)
						}
						break
					}
					v.vf.Dev.Bind(p, "vfio-pci", 0)
					vd, err := drv.Register(v.vf.Dev)
					if err != nil {
						t.Fatalf("step %d: VF %d: %v", s, i, err)
					}
					if v.vd != nil && vd != v.vd {
						t.Fatalf("step %d: VF %d: re-registration built a new Device", s, i)
					}
					v.vd = vd
					m.register(i)
				case 4: // open
					i := pick(b, func(v *eagerVF) bool { return v.registered })
					if i < 0 {
						break
					}
					drv.Open(p, lookup(i))
					m.vfs[i].opens++
					m.opens++
				case 5: // close
					i := pick(b, func(v *eagerVF) bool { return v.opens > 0 })
					if i < 0 {
						break
					}
					drv.Close(p, lookup(i))
					m.vfs[i].opens--
					m.opens--
				}
				compare(s)
			}
		})
		k.Run()
	})
}
