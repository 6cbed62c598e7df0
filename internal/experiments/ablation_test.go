package experiments

import (
	"strings"
	"testing"
)

func TestAblationBusScanGrowsWithVFCount(t *testing.T) {
	rep, err := defaultExec().AblationBusScan(25, []int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(rep.Table.CSV()), "\n")[1:]
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Parse the vfio-dev column (durations render like "1.2s"); compare
	// totals instead via the last column... durations are strings, so
	// assert ordering through a re-run with direct access.
	small, err := runWithSpecForTest(t, 64, 25)
	if err != nil {
		t.Fatal(err)
	}
	large, err := runWithSpecForTest(t, 256, 25)
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("vfio-dev time should grow with VF population: %v @64 vs %v @256", small, large)
	}
}

func runWithSpecForTest(t *testing.T, vfs, n int) (int64, error) {
	t.Helper()
	spec := clusterSpecWithVFs(vfs)
	res, err := runWithSpec("vanilla", n, spec, nil)
	if err != nil {
		return 0, err
	}
	return int64(res.Recorder.ByStage()["4-vfio-dev"].Mean()), nil
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
	rep, err := defaultExec().AblationSlotReset(50)
	if err != nil {
		t.Fatal(err)
	}
	// Slot-reset singleton devsets must show a much smaller vfio stage.
	busSpec := clusterSpecWithVFs(256)
	busRes, err := runWithSpec("vanilla", 50, busSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	slotSpec := clusterSpecWithVFs(256)
	slotSpec.NIC.SlotReset = true
	slotRes, err := runWithSpec("vanilla", 50, slotSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	busVFIO := busRes.Recorder.ByStage()["4-vfio-dev"].Mean()
	slotVFIO := slotRes.Recorder.ByStage()["4-vfio-dev"].Mean()
	if slotVFIO*4 > busVFIO {
		t.Errorf("slot-reset vfio time (%v) not ≪ bus-reset (%v)", slotVFIO, busVFIO)
	}
	_ = rep
}

func TestFutureVDPABetweenVanillaAndFastIOV(t *testing.T) {
	rep, err := defaultExec().FutureVDPA(50)
	if err != nil {
		t.Fatal(err)
	}
	van, err := run("vanilla", 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	vdpa, err := run("vdpa", 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	fio, err := run("fastiov", 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vdpa.Totals.Mean() >= van.Totals.Mean() {
		t.Errorf("vdpa (%v) should beat vanilla (%v): no devset lock", vdpa.Totals.Mean(), van.Totals.Mean())
	}
	if fio.Totals.Mean() >= vdpa.Totals.Mean() {
		t.Errorf("fastiov (%v) should beat vdpa (%v): vdpa keeps eager zeroing", fio.Totals.Mean(), vdpa.Totals.Mean())
	}
	_ = rep
}
