package fastiov

import (
	"strings"
	"testing"
	"time"
)

func TestBaselinesListStable(t *testing.T) {
	names := Baselines()
	if len(names) != 10 {
		t.Fatalf("expected 10 Fig. 11 baselines, got %d", len(names))
	}
	if names[0] != BaselineNoNet || names[len(names)-1] != BaselineFastIOV {
		t.Errorf("presentation order wrong: %v", names)
	}
	for _, n := range names {
		if _, err := OptionsFor(n); err != nil {
			t.Errorf("OptionsFor(%s): %v", n, err)
		}
	}
}

func TestOptionsForUnknown(t *testing.T) {
	if _, err := OptionsFor("bogus"); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestRunBaselinePublicAPI(t *testing.T) {
	res, err := RunBaseline(BaselineFastIOV, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.N() != 20 {
		t.Errorf("n = %d", res.Totals.N())
	}
	if res.Totals.Mean() <= 0 {
		t.Error("zero mean")
	}
}

// TestNegativeConcurrencyRejected pins that a negative container count is
// an error from the one-call entry points, not a panic.
func TestNegativeConcurrencyRejected(t *testing.T) {
	if _, err := RunBaseline(BaselineVanilla, -1); err == nil {
		t.Error("RunBaseline accepted n = -1")
	}
	if _, err := StartupMetrics(BaselineVanilla, -3, 1); err == nil {
		t.Error("StartupMetrics accepted n = -3")
	}
}

func TestExperimentSuiteComplete(t *testing.T) {
	want := []string{
		"fig1", "fig5", "tab1", "fig11", "fig12",
		"fig13a", "fig13b", "fig13c", "fig14", "sec6.5",
		"fig15", "fig16a-d", "fig16e-h", "fig16i-l",
		"abl-busscan", "abl-pagesize", "abl-scrubber", "abl-slotreset",
		"future-vdpa", "bg-dataplane", "ext-arrivals", "chaos",
		"contention", "recovery", "saturation", "fleet", "serving",
		"availability", "slowatch",
	}
	suite := Experiments()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d entries, want %d", len(suite), len(want))
	}
	for i, id := range want {
		if suite[i].ID != id {
			t.Errorf("suite[%d] = %s, want %s", i, suite[i].ID, id)
		}
		if suite[i].Title == "" || suite[i].Run == nil {
			t.Errorf("suite[%d] incomplete", i)
		}
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	rep, err := RunExperiment("tab1", 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "tab1" || rep.Table == nil {
		t.Errorf("report: %+v", rep)
	}
	if !strings.Contains(rep.String(), "4-vfio-dev") {
		t.Error("tab1 missing stage rows")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", 0); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestHostSpecDefaults(t *testing.T) {
	spec := DefaultHostSpec()
	if spec.Cores != 112 || spec.NumVFs != 256 {
		t.Errorf("spec = %+v", spec)
	}
	if spec.Memory.TotalBytes != 256<<30 {
		t.Errorf("memory = %d", spec.Memory.TotalBytes)
	}
}

func TestAppsExported(t *testing.T) {
	apps := Apps()
	if len(apps) != 4 {
		t.Fatalf("apps = %d", len(apps))
	}
	if apps[0].Name != "image" || apps[3].Name != "inference" {
		t.Errorf("app order: %v, %v", apps[0].Name, apps[3].Name)
	}
}

func TestArenaReexport(t *testing.T) {
	a := NewArena(4, 4096)
	buf := a.Acquire(0)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("acquired page not zeroed")
		}
	}
	r := NewZeroRegistry(a)
	r.Register(1, []int{1, 2})
	if r.Tracked(1) != 2 {
		t.Errorf("tracked = %d", r.Tracked(1))
	}
}

func TestDevsetReexport(t *testing.T) {
	ds := NewDevset(3)
	ds.Open(0)
	if ds.TotalOpen() != 1 {
		t.Errorf("total = %d", ds.TotalOpen())
	}
	ds.Close(0)
}

func TestParentChildLockReexport(t *testing.T) {
	var pc ParentChildLock
	c := pc.NewChild()
	done := make(chan struct{})
	go func() {
		c.With(func() {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("child lock hung")
	}
}

func TestFullConfigMatrixSmoke(t *testing.T) {
	// Every baseline starts 10 containers cleanly and reports sane times.
	for _, name := range append(Baselines(), BaselineRebind, BaselineIPvtap) {
		res, err := RunBaseline(name, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Totals.N() != 10 {
			t.Errorf("%s: completed %d", name, res.Totals.N())
		}
		if res.Totals.Max() > 2*time.Minute {
			t.Errorf("%s: implausible max %v", name, res.Totals.Max())
		}
	}
}

// TestOversizedConfigRejected: a seed sweep above MaxSeeds or a fleet above
// MaxHosts is an error before anything is simulated, from every suite entry
// point and from the journey export; the bounds themselves are accepted.
func TestOversizedConfigRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  RunConfig
		want string
	}{
		{"seeds", RunConfig{Seeds: SeedList(MaxSeeds + 1)}, "1001 seeds exceeds the limit of 1000"},
		{"fleet-hosts", RunConfig{Fleet: FleetConfig{Hosts: MaxHosts + 1}}, "10001 hosts exceeds the limit of 10000"},
		{"serve-hosts", RunConfig{Serve: ServeConfig{Hosts: MaxHosts + 1}}, "10001 hosts exceeds the limit of 10000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSuite(tc.cfg)
			if _, err := s.Run("fig5", 2); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run: err = %v, want %q", err, tc.want)
			}
			if _, err := s.Experiments()[0].Run(2); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Experiments()[0].Run: err = %v, want %q", err, tc.want)
			}
		})
	}
	for _, tc := range []struct {
		name string
		cfg  RunConfig
	}{
		{"seeds", RunConfig{Seeds: SeedList(MaxSeeds)}},
		{"fleet-hosts", RunConfig{Fleet: FleetConfig{Hosts: MaxHosts}}},
		{"serve-hosts", RunConfig{Serve: ServeConfig{Hosts: MaxHosts}}},
	} {
		t.Run(tc.name+"-at-bound", func(t *testing.T) {
			if err := NewSuite(tc.cfg).err; err != nil {
				t.Errorf("config at the bound rejected: %v", err)
			}
		})
	}
	err := WriteJourneyExports(JourneyExportConfig{Hosts: MaxHosts + 1}, nil, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "10001 hosts exceeds the limit of 10000") {
		t.Errorf("WriteJourneyExports: err = %v, want the host limit", err)
	}
}
