package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"fastiov/internal/fleet"
	"fastiov/internal/sim"
)

// TestMetricsMatchBenchmarkJSON pins the declared metric lists to what the
// benchmark prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range perLayerMetrics() {
		got = append(got, m.name+" "+m.unit)
	}
	var want []string
	for _, m := range decl.PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("per-layer metrics differ:\n code %v\n json %v", got, want)
	}
	var e2e []string
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	if fmt.Sprint(e2e) != "[setup_s s run_s s allocs count alloc_mb MB retained_mb MB]" {
		t.Errorf("end-to-end metrics %v", e2e)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("workloads: json %v, code %v", names, workloadNames())
	}
}

// TestChecksumsCoverEverySeed checks that every workload has a recorded
// checksum at every simulation seed --seed can select.
func TestChecksumsCoverEverySeed(t *testing.T) {
	sums, err := loadChecksums()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for s := 1; s <= simSeeds; s++ {
			if len(sums[name][fmt.Sprint(s)]) != 64 {
				t.Errorf("%s seed %d: no checksum", name, s)
			}
		}
	}
}

// TestWrapSchedulerForwardsScorer checks that the placement timer is a
// Scorer exactly when the wrapped policy is.
func TestWrapSchedulerForwardsScorer(t *testing.T) {
	for _, name := range fleet.Policies() {
		s, err := fleet.NewScheduler(name, sim.NewRand(1))
		if err != nil {
			t.Fatal(err)
		}
		w, timed := wrapScheduler(s)
		_, inner := s.(fleet.Scorer)
		_, outer := w.(fleet.Scorer)
		if inner != outer {
			t.Errorf("%s: policy is Scorer=%v, wrapper is Scorer=%v", name, inner, outer)
		}
		hosts := []fleet.HostState{{Index: 0, CapVFs: 4, FreeVFs: 4}, {Index: 1, CapVFs: 4, FreeVFs: 2}}
		if _, err := w.Place(hosts); err != nil {
			t.Fatal(err)
		}
		if timed.calls != 1 || w.Name() != name {
			t.Errorf("%s: calls=%d name=%q", name, timed.calls, w.Name())
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"fastiov/internal/fastiovd.(*Module).claimAndZero":   "fastiovd",
		"fastiov/internal/sim.(*Queue[go.shape.*uint8]).Pop": "sim",
		"fastiov/internal/sim.(*Kernel).spawn.func1":         "sim",
		"fastiov/internal/cluster.NewHost":                   "cluster",
		"runtime.mallocgc":                                   "runtime",
		"iter.Pull[...].func1":                               "",
		"main.(*hostIter).run":                               "",
		"fastiov/internal/serve.(*Server).Run.func2":         "serve",
		"sort.Slice": "",
		"fastiov/internal/metrics.(*Registry).Observer.func1":     "metrics",
		"fastiov/internal/experiments.(*Exec).Fig11":              "experiments",
		"fastiov/internal/harness.(*Pool).Do[go.shape.struct {}]": "harness",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
