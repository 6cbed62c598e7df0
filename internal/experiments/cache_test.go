package experiments

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/serverless"
	"fastiov/internal/sim"
)

// TestStartupResultDoesNotPinHost checks that a sealed startup result, the
// value the scenario cache keeps, does not keep its host's substrate
// reachable: the audit tore every sandbox down, and each one reaches the
// host's hypervisor environment and through it its KVM, memory, VFIO and
// fastiovd state; a metered result's sealed registry read the same
// substrate until it was sealed. Finalizers on the environment and the
// memory allocator report whether the collector freed them once the run
// returns.
func TestStartupResultDoesNotPinHost(t *testing.T) {
	for _, obs := range []Observe{0, ObserveMetrics} {
		for _, b := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
			var envFreed, memFreed atomic.Bool
			sc := startup(onHost(b), 8)
			wave := sc.run
			sc.run = func(sys system) (*cluster.Result, error) {
				runtime.SetFinalizer(sys.host.Env, func(any) { envFreed.Store(true) })
				runtime.SetFinalizer(sys.host.Mem, func(any) { memFreed.Store(true) })
				return wave(sys)
			}
			res := runOne(t, NewExec(Config{Workers: 1, Observe: obs}), sc)
			// Finalizers run on their own goroutine after the cycle that
			// finds the object unreachable; give them a bounded while.
			for i := 0; i < 50 && !(envFreed.Load() && memFreed.Load()); i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if !envFreed.Load() || !memFreed.Load() {
				t.Errorf("%s observe=%d: the sealed result keeps its host's substrate reachable", b, obs)
			}
			if res.Totals.N() != 8 {
				t.Errorf("%s observe=%d: %d totals, want 8", b, obs, res.Totals.N())
			}
			if (res.Metrics != nil) != (obs == ObserveMetrics) {
				t.Errorf("%s observe=%d: metrics registry %v", b, obs, res.Metrics)
			}
			runtime.KeepAlive(res)
		}
	}
}

// TestFleetKeyIsBounded pins that a fleet scenario's cache key does not
// grow with its host list: a 100-host fleet keys in under 256 bytes, and
// the key still names the fleet for error messages.
func TestFleetKeyIsBounded(t *testing.T) {
	key := keyOf(NewExec(Config{}), fleetRun(onFleet(cluster.BaselineVanilla, "vf-aware", 100, 20)))
	if len(key) >= 256 {
		t.Errorf("100-host fleet key is %d bytes: %s", len(key), key)
	}
	for _, want := range []string{"fleet ", "baseline=vanilla", "policy=vf-aware", "hosts=100", "sha256="} {
		if !strings.Contains(key, want) {
			t.Errorf("key %q does not name %q", key, want)
		}
	}
}

// keyOf is the cache key runAll gives sc on x.
func keyOf[T any](x *Exec, sc scenario[T]) string {
	return sc.work + " " + x.resolve(sc.recipe).key(sc.args)
}

// TestScenarioKeySeparatesEveryInput changes, one at a time, each recipe
// and workload field that shapes a run, and checks that the cache key
// changes with it: a field the encoder missed would merge two different
// simulations into one cache entry.
func TestScenarioKeySeparatesEveryInput(t *testing.T) {
	x := NewExec(Config{})
	host := func(edit func(*recipe)) recipe {
		r := onHost(cluster.BaselineVanilla)
		if edit != nil {
			edit(&r)
		}
		return r
	}
	base := keyOf(x, startup(host(nil), 20))
	cells := []struct {
		field    string
		base, to string
	}{
		{"baseline", base, keyOf(x, startup(onHost(cluster.BaselineFastIOV), 20))},
		{"layout", base, keyOf(x, startup(host(func(r *recipe) { r.host.Opts.Layout = atMemories([]int64{1 << 30}, 20)[0].layout }), 20))},
		{"host spec", base, keyOf(x, startup(host(func(r *recipe) { r.host.Spec.NumVFs = 64 }), 20))},
		{"scrubber off", keyOf(x, startup(onHost(cluster.BaselineFastIOV), 20)), keyOf(x, startup(func() recipe {
			r := onHost(cluster.BaselineFastIOV)
			r.host.Opts.DisableScrubber = true
			return r
		}(), 20))},
		{"arrival", base, keyOf(x, startup(host(func(r *recipe) {
			r.host.Opts.Arrival = cluster.Arrival{Kind: cluster.ArrivalPoisson, RatePerSec: 50}
		}), 20))},
		{"N", base, keyOf(x, startup(host(nil), 21))},
		{"app", keyOf(x, completions(host(nil), 20, serverless.Image)), keyOf(x, completions(host(nil), 20, serverless.Inference))},
		{"waves", keyOf(x, churn(host(nil), 3, 20)), keyOf(x, churn(host(nil), 4, 20))},
		{"fault plan", base, keyOf(x, startup(host(func(r *recipe) { r.host.Opts.Faults = chaosPlan(0.05) }), 20))},
		{"executor fault plan", base, keyOf(NewExec(Config{Faults: chaosPlan(0.05)}), startup(host(nil), 20))},
		{"trace", base, keyOf(NewExec(Config{Observe: ObserveTrace}), startup(host(nil), 20))},
		{"metrics", base, keyOf(NewExec(Config{Observe: ObserveMetrics}), startup(host(nil), 20))},
		{"journeys", keyOf(x, serving(onServe(cluster.BaselineVanilla, "fifo", 4, 32, ""))),
			keyOf(NewExec(Config{Observe: ObserveJourneys}), serving(onServe(cluster.BaselineVanilla, "fifo", 4, 32, "")))},
		{"workload", base, keyOf(x, completions(host(nil), 20, serverless.Image))},
		{"fleet policy", keyOf(x, fleetRun(onFleet(cluster.BaselineVanilla, "random", 10, 20))),
			keyOf(x, fleetRun(onFleet(cluster.BaselineVanilla, "vf-aware", 10, 20)))},
		{"fleet hosts", keyOf(x, fleetRun(onFleet(cluster.BaselineVanilla, "random", 10, 20))),
			keyOf(x, fleetRun(onFleet(cluster.BaselineVanilla, "random", 5, 40)))},
		{"fleet starts", keyOf(x, fleetRun(onFleet(cluster.BaselineVanilla, "random", 10, 20))),
			keyOf(x, fleetRun(onFleet(cluster.BaselineVanilla, "random", 10, 10)))},
		{"serve policy", keyOf(x, serving(onServe(cluster.BaselineVanilla, "fifo", 4, 32, ""))),
			keyOf(x, serving(onServe(cluster.BaselineVanilla, "slo-aware", 4, 32, "")))},
		{"serve hosts", keyOf(x, serving(onServe(cluster.BaselineVanilla, "fifo", 4, 32, ""))),
			keyOf(x, serving(onServe(cluster.BaselineVanilla, "fifo", 2, 32, "")))},
		{"rate", keyOf(x, serving(onServe(cluster.BaselineVanilla, "fifo", 4, 32, ""))),
			keyOf(x, serving(onServe(cluster.BaselineVanilla, "fifo", 4, 64, "")))},
		{"tenant spec", keyOf(x, serving(onServe(cluster.BaselineVanilla, "fifo", 4, 32, ""))),
			keyOf(x, serving(onServe(cluster.BaselineVanilla, "fifo", 4, 32, "api:rate=40")))},
		{"alert spec", keyOf(x, serving(onServe(cluster.BaselineVanilla, "fifo", 4, 32, ""))), keyOf(x, serving(func() recipe {
			r := onServe(cluster.BaselineVanilla, "fifo", 4, 32, "")
			r.serve.AlertSpec = DefaultSlowatchRules
			return r
		}()))},
		{"packets", keyOf(x, stream(host(nil), 1000, 64)), keyOf(x, stream(host(nil), 2000, 64))},
		{"size", keyOf(x, stream(host(nil), 1000, 64)), keyOf(x, stream(host(nil), 1000, 1500))},
	}
	for _, c := range cells {
		if c.base == c.to {
			t.Errorf("%s: changing it leaves the key at %q", c.field, c.base)
		}
	}

	// The plan is keyed by its canonical text, not its pointer, and an
	// empty plan keys like no plan at all.
	a := keyOf(x, startup(host(func(r *recipe) { r.host.Opts.Faults = chaosPlan(0.05) }), 20))
	b := keyOf(x, startup(host(func(r *recipe) { r.host.Opts.Faults = chaosPlan(0.05) }), 20))
	if a != b {
		t.Errorf("equal plans key apart:\n%s\n%s", a, b)
	}
	if empty := keyOf(x, startup(host(func(r *recipe) { r.host.Opts.Faults = fault.NewPlan() }), 20)); empty != base {
		t.Errorf("an empty plan keys apart from no plan:\n%s\n%s", empty, base)
	}

	// A pinned recipe takes none of the executor's defaults.
	pinned := host(func(r *recipe) { r.pinned = true })
	all := NewExec(Config{Faults: chaosPlan(0.05), Observe: Observers(true, true, true)})
	if got, want := keyOf(all, memLoop(pinned)), keyOf(x, memLoop(pinned)); got != want {
		t.Errorf("pinned recipe took the executor's defaults:\n%s\n%s", got, want)
	}
}

// registryTrafficN20 is the full registry's cache traffic at -n 20 on seed
// 1: the CLI's "-experiment all -n 20" summary line. 40 of the 216
// scenario requests repeat a recipe and workload another figure already
// ran, 13 of them by spelling out a default (a 512 MB layout, a 256-VF or
// bus-reset spec, a burst arrival).
var registryTrafficN20 = CacheStats{Runs: 176, Hits: 40}

// TestRegistryCacheTraffic pins the registry's cache classes: a change to
// how recipes resolve or key that merges or splits scenarios changes the
// counts.
func TestRegistryCacheTraffic(t *testing.T) {
	x := NewExec(Config{})
	for _, e := range Registry() {
		if _, err := e.Run(x, 20); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	if st := x.CacheStats(); st.Runs != registryTrafficN20.Runs || st.Hits != registryTrafficN20.Hits {
		t.Errorf("cache traffic %d runs, %d hits; want %d runs, %d hits",
			st.Runs, st.Hits, registryTrafficN20.Runs, registryTrafficN20.Hits)
	}
}

// TestLeftRunningSandboxFailsTheAudit checks the audit every host run
// passes through: a workload that leaves a sandbox running fails its
// scenario.
func TestLeftRunningSandboxFailsTheAudit(t *testing.T) {
	sc := scenario[int]{recipe: onHost(cluster.BaselineFastIOV), work: "leak",
		fingerprint: func(int) []byte { return nil },
		run: func(sys system) (int, error) {
			var err error
			sys.host.K.Go("leak", func(p *sim.Proc) { _, err = sys.host.Eng.RunPodSandbox(p, 0) })
			sys.host.K.Run()
			return 0, err
		}}
	_, err := runAll(defaultExec(), []scenario[int]{sc})
	if err == nil || !strings.Contains(err.Error(), "dirty leak audit") {
		t.Fatalf("err = %v, want a dirty leak audit", err)
	}
}
