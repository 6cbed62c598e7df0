// Quickstart: boot a simulated host with the FastIOV CNI, start one secure
// container, and print what happened at every startup stage.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"fastiov"
	"fastiov/internal/sim"
)

func main() {
	// A host with the paper's testbed spec and the full FastIOV
	// configuration: parent-child devset locking, async VF driver init,
	// image-mapping skip, and decoupled lazy zeroing.
	opts, err := fastiov.OptionsFor(fastiov.BaselineFastIOV)
	if err != nil {
		log.Fatal(err)
	}
	host, err := fastiov.NewHost(fastiov.DefaultHostSpec(), opts)
	if err != nil {
		log.Fatal(err)
	}

	// Start one secure container (crictl runp equivalent).
	host.K.Go("quickstart", func(p *sim.Proc) {
		sb, err := host.Eng.RunPodSandbox(p, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sandbox %d started at virtual time %v\n", sb.ID, p.Now())
		fmt.Printf("  VF: %s (fd %d, devset %d, lock mode %s)\n",
			sb.CNIRes.VF.Name(), sb.MVM.VFDevice().FD(),
			sb.MVM.VFDevice().Set.ID, host.VFIO.Mode())
		fmt.Printf("  image region DMA-mapped: %v (FastIOV-S skips it)\n", !sb.MVM.ImageSkipped())
	})
	host.K.Run()

	fmt.Println("\nper-stage breakdown:")
	rec := host.Rec
	root, _ := rec.RootOf(0)
	for _, id := range rec.Children(root) {
		sp := rec.Span(id)
		fmt.Printf("  %-12s %8v -> %8v (%v)\n", sp.Name,
			sp.Start.Round(time.Microsecond), sp.End.Round(time.Microsecond),
			sp.Dur().Round(time.Microsecond))
	}
	fmt.Printf("total startup: %v\n", rec.Total(0).Round(time.Microsecond))
	fmt.Printf("lazy zeroing: %d pages cleared on first-touch faults, %d by the background scrubber, %d instantly (firmware), %d corruptions\n",
		host.Lazy.LazyZeroed, host.Lazy.ScrubZeroed, host.Lazy.InstantZeroed, host.Lazy.Corruptions)
}
