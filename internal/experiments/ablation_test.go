package experiments

import (
	"strings"
	"testing"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/telemetry"
)

func TestAblationBusScanGrowsWithVFCount(t *testing.T) {
	x := defaultExec()
	rep, err := x.AblationBusScan(25, []int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(rep.Table.CSV()), "\n")[1:]
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Durations render as strings, so assert the ordering on the cached
	// results themselves.
	vfioDev := func(vfs int) time.Duration {
		r := onHost(cluster.BaselineVanilla)
		r.host.Spec.NumVFs = vfs
		return runOne(t, x, startup(r, 25)).Recorder.ByStage()[telemetry.StageVFIODev].Mean()
	}
	if small, large := vfioDev(64), vfioDev(256); large <= small {
		t.Errorf("vfio-dev time should grow with VF population: %v @64 vs %v @256", small, large)
	}
}

func TestAblationPageSizeHugepagesWin(t *testing.T) {
	rep, err := defaultExec().AblationPageSize(5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Table.String(), "4K") || !strings.Contains(rep.Table.String(), "2M") {
		t.Errorf("table:\n%s", rep.Table.String())
	}
}

func TestAblationScrubberHelpsCompletion(t *testing.T) {
	rep, err := defaultExec().AblationScrubber(20)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Table.String()
	if !strings.Contains(out, "on") || !strings.Contains(out, "off") {
		t.Errorf("table:\n%s", out)
	}
}

func TestAblationSlotResetRemovesContention(t *testing.T) {
	x := defaultExec()
	if _, err := x.AblationSlotReset(50); err != nil {
		t.Fatal(err)
	}
	// Slot-reset singleton devsets must show a much smaller vfio stage.
	vfioDev := func(slot bool) time.Duration {
		r := onHost(cluster.BaselineVanilla)
		r.host.Spec.NIC.SlotReset = slot
		return runOne(t, x, startup(r, 50)).Recorder.ByStage()[telemetry.StageVFIODev].Mean()
	}
	if busVFIO, slotVFIO := vfioDev(false), vfioDev(true); slotVFIO*4 > busVFIO {
		t.Errorf("slot-reset vfio time (%v) not ≪ bus-reset (%v)", slotVFIO, busVFIO)
	}
}

func TestFutureVDPABetweenVanillaAndFastIOV(t *testing.T) {
	x := defaultExec()
	if _, err := x.FutureVDPA(50); err != nil {
		t.Fatal(err)
	}
	van := runOne(t, x, startup(onHost(cluster.BaselineVanilla), 50))
	vdpa := runOne(t, x, startup(onHost(cluster.BaselineVDPA), 50))
	fio := runOne(t, x, startup(onHost(cluster.BaselineFastIOV), 50))
	if vdpa.Totals.Mean() >= van.Totals.Mean() {
		t.Errorf("vdpa (%v) should beat vanilla (%v): no devset lock", vdpa.Totals.Mean(), van.Totals.Mean())
	}
	if fio.Totals.Mean() >= vdpa.Totals.Mean() {
		t.Errorf("fastiov (%v) should beat vdpa (%v): vdpa keeps eager zeroing", fio.Totals.Mean(), vdpa.Totals.Mean())
	}
}
