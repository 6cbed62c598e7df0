package vfio

import (
	"testing"

	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

func TestVFsAreSingletonGroups(t *testing.T) {
	r := newRig(t, LockGlobal, 4)
	seen := map[int]bool{}
	for _, vd := range r.vds {
		g := vd.Group()
		if g == nil {
			t.Fatal("device has no group")
		}
		if g.dev != vd {
			t.Errorf("VF group %d's member is not its device", g.ID)
		}
		if seen[g.ID] {
			t.Errorf("group %d reused", g.ID)
		}
		seen[g.ID] = true
	}
}

func TestUAPIHappyPath(t *testing.T) {
	// The QEMU vfio realize sequence: open container, attach group, map
	// guest memory, get device fd.
	r := newRig(t, LockParentChild, 1)
	vd := r.vds[0]
	r.k.Go("t", func(p *sim.Proc) {
		c := r.drv.OpenContainer()
		if err := c.AttachGroup(p, vd.Group()); err != nil {
			t.Fatal(err)
		}
		region, err := c.MapDMA(p, 0, 16<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		if region.PageCount() != 8 {
			t.Errorf("pages = %d", region.PageCount())
		}
		fd, _, err := vd.Group().GetDeviceFD(p, vd)
		if err != nil {
			t.Fatal(err)
		}
		if fd <= 0 {
			t.Errorf("fd = %d", fd)
		}
		// Translate through the container's domain.
		if _, err := vd.Domain().Translate(4 << 20); err != nil {
			t.Errorf("translate: %v", err)
		}
		// Full teardown.
		r.drv.Close(p, vd)
		if err := c.Close(p); err != nil {
			t.Fatal(err)
		}
		if vd.Domain() != nil {
			t.Error("domain survives container close")
		}
	})
	r.k.Run()
}

func TestDeviceFDRequiresAttachedContainer(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	vd := r.vds[0]
	r.k.Go("t", func(p *sim.Proc) {
		if _, _, err := vd.Group().GetDeviceFD(p, vd); err == nil {
			t.Error("device fd handed out before container attach")
		}
	})
	r.k.Run()
}

func TestGroupAttachesToOneContainerOnly(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	vd := r.vds[0]
	r.k.Go("t", func(p *sim.Proc) {
		c1 := r.drv.OpenContainer()
		c2 := r.drv.OpenContainer()
		if err := c1.AttachGroup(p, vd.Group()); err != nil {
			t.Fatal(err)
		}
		if err := c2.AttachGroup(p, vd.Group()); err == nil {
			t.Error("group attached to two containers")
		}
	})
	r.k.Run()
}

func TestMapDMARequiresAttachedGroup(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	r.k.Go("t", func(p *sim.Proc) {
		c := r.drv.OpenContainer()
		if _, err := c.MapDMA(p, 0, 2<<20, nil); err == nil {
			t.Error("MapDMA on empty container succeeded")
		}
	})
	r.k.Run()
}

func TestContainerCloseUnmapsEverything(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	vd := r.vds[0]
	free := r.mem.FreePages()
	r.k.Go("t", func(p *sim.Proc) {
		c := r.drv.OpenContainer()
		if err := c.AttachGroup(p, vd.Group()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.MapDMA(p, 0, 8<<20, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.MapDMA(p, 64<<20, 4<<20, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(p); err != nil {
			t.Fatal(err)
		}
		// Closing twice is a no-op.
		if err := c.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if got := r.mem.FreePages(); got != free {
		t.Errorf("pages leaked: %d vs %d", got, free)
	}
}

func TestContainerCloseRefusesOpenDevices(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	vd := r.vds[0]
	r.k.Go("t", func(p *sim.Proc) {
		c := r.drv.OpenContainer()
		if err := c.AttachGroup(p, vd.Group()); err != nil {
			t.Fatal(err)
		}
		if _, _, err := vd.Group().GetDeviceFD(p, vd); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(p); err == nil {
			t.Error("container closed with an open device")
		}
		r.drv.Close(p, vd)
		if err := c.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
}

func TestClosedContainerRejectsOps(t *testing.T) {
	r := newRig(t, LockGlobal, 2)
	r.k.Go("t", func(p *sim.Proc) {
		c := r.drv.OpenContainer()
		if err := c.AttachGroup(p, r.vds[0].Group()); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(p); err != nil {
			t.Fatal(err)
		}
		if err := c.AttachGroup(p, r.vds[1].Group()); err == nil {
			t.Error("attach to closed container succeeded")
		}
		if _, err := c.MapDMA(p, 0, 2<<20, nil); err == nil {
			t.Error("MapDMA on closed container succeeded")
		}
	})
	r.k.Run()
}

func TestDuplicateContainerMapping(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	r.k.Go("t", func(p *sim.Proc) {
		c := r.drv.OpenContainer()
		if err := c.AttachGroup(p, r.vds[0].Group()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.MapDMA(p, 0, 2<<20, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.MapDMA(p, 0, 2<<20, nil); err == nil {
			t.Error("duplicate container mapping accepted")
		}
		if err := c.UnmapDMA(p, 0x999); err == nil {
			t.Error("unmap of unknown IOVA accepted")
		}
	})
	r.k.Run()
}

func TestContainerMappingsZeroedByDefault(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	r.k.Go("t", func(p *sim.Proc) {
		c := r.drv.OpenContainer()
		if err := c.AttachGroup(p, r.vds[0].Group()); err != nil {
			t.Fatal(err)
		}
		region, err := c.MapDMA(p, 0, 8<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range region.Runs {
			for pg := run.Start; pg < run.Start+run.Count; pg++ {
				if r.mem.State(pg) != hostmem.Zeroed {
					t.Fatalf("page %d state %v", pg, r.mem.State(pg))
				}
			}
		}
	})
	r.k.Run()
}

// TestContainerCloseDestroysEveryDomain attaches two groups to one
// container, each of whose devices gets its own domain, and requires Close
// to destroy both.
func TestContainerCloseDestroysEveryDomain(t *testing.T) {
	r := newRig(t, LockGlobal, 2)
	before := r.mmu.Domains()
	r.k.Go("t", func(p *sim.Proc) {
		c := r.drv.OpenContainer()
		for _, vd := range r.vds {
			if err := c.AttachGroup(p, vd.Group()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.MapDMA(p, 0, 8<<20, nil); err != nil {
			t.Fatal(err)
		}
		if got := r.mmu.Domains(); got != before+2 {
			t.Fatalf("%d domains after two attaches, want %d", got, before+2)
		}
		if err := c.Close(p); err != nil {
			t.Fatal(err)
		}
		for _, vd := range r.vds {
			if vd.Domain() != nil {
				t.Errorf("device %s keeps a domain after close", vd.PDev.Addr)
			}
		}
	})
	r.k.Run()
	if got := r.mmu.Domains(); got != before {
		t.Errorf("%d domains after close, want %d", got, before)
	}
}
