package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"time"

	"fastiov"
	"fastiov/internal/cluster"
	"fastiov/internal/experiments"
	"fastiov/internal/fault"
	"fastiov/internal/fleet"
	"fastiov/internal/serve"
	"fastiov/internal/stats"
)

// workload is one named input set. prepare runs once per process and is
// not measured as set-up; setup builds one iteration's simulated system and
// is timed as setup_s; the iteration's run is timed as run_s.
type workload struct {
	name string
	// setupReps is how many times each iteration builds its system; all but
	// the last are discarded. Cheap set-ups repeat so that setup_s is a
	// median over enough calls to be steady. Only a set-up that spawns no
	// simulated procs may repeat: a discarded kernel that never runs keeps
	// its parked procs, and everything they reference, alive.
	setupReps int
	prepare   func(e *env) error
	setup     func(e *env) (iteration, error)
	// extras, when set, makes the traced run's workload-specific
	// measurements until the deadline.
	extras func(e *env, ls *layers, v *verifier, until time.Time) error
}

// iteration is one built system, run once.
type iteration interface {
	// run is the timed window.
	run() error
	// check reduces the outcome to its canonical fingerprint, failing on a
	// dirty leak audit.
	check() ([]byte, error)
	// headline summarises the simulated result for a human reader.
	headline() string
}

// env is what a workload sees of the benchmark: the simulation seed and,
// in a traced run, the span recorder and the per-layer collector (both nil
// otherwise; their methods are no-ops on nil).
type env struct {
	simSeed uint64
	want    string
	tr      *tracer
	ls      *layers
	// wrapSched makes fleet-backed workloads time placement (traced runs).
	wrapSched bool
	scheds    []*timedSched
}

var baselines = []string{cluster.BaselineVanilla, cluster.BaselineFastIOV}

func workloads() []*workload {
	return []*workload{hostC200(), fleet100x20(), serveCrashObserved(), registryN20()}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// --- host-c200: one paper-default host, c=200, both baselines -------------

// hostC200N is the paper's headline concurrency.
const hostC200N = 200

func hostC200() *workload {
	var snaps []*cluster.Snapshot
	return &workload{
		name:      "host-c200",
		setupReps: 1,
		prepare: func(e *env) error {
			snaps = snaps[:0]
			for _, b := range baselines {
				opts, err := cluster.OptionsFor(b)
				if err != nil {
					return err
				}
				opts.Seed = e.simSeed
				opts.Audit = true
				sp := e.tr.begin("cluster.NewHost", b)
				h, err := cluster.NewHost(cluster.DefaultHostSpec(), opts)
				e.tr.end(sp)
				if err != nil {
					return err
				}
				sp = e.tr.begin("cluster.CaptureSnapshot", b)
				snap, err := cluster.CaptureSnapshot(h)
				e.tr.end(sp)
				if err != nil {
					return err
				}
				snaps = append(snaps, snap)
			}
			return nil
		},
		extras: func(e *env, ls *layers, _ *verifier, _ time.Time) error { return hostWorkCounts(e, ls) },
		setup: func(e *env) (iteration, error) {
			it := &hostIter{e: e}
			for i, snap := range snaps {
				sp := e.tr.begin("cluster.RestoreSnapshot", baselines[i])
				h, err := cluster.RestoreSnapshot(snap)
				e.tr.end(sp)
				if err != nil {
					return nil, err
				}
				it.hosts = append(it.hosts, h)
			}
			return it, nil
		},
	}
}

type hostIter struct {
	e     *env
	hosts []*cluster.Host
	res   []*cluster.Result
}

func (it *hostIter) run() error {
	for i, h := range it.hosts {
		b := baselines[i]
		kw := it.e.watchKernel(h.K)
		mw := it.e.watchAllocs("cluster.allocs." + b)
		sp := it.e.tr.begin("cluster.Host.StartupExperiment", b)
		res := h.StartupExperiment(hostC200N)
		it.e.tr.end(sp)
		mw.stop()
		kw.stop()
		if res.Err != nil {
			return fmt.Errorf("%s: %w", b, res.Err)
		}
		it.res = append(it.res, res)
	}
	it.hosts = nil
	return nil
}

func (it *hostIter) check() ([]byte, error) {
	var b []byte
	for _, r := range it.res {
		if !r.Leaks.Clean() {
			return nil, fmt.Errorf("%s: leak audit dirty: %s", r.Name, r.Leaks)
		}
		b = fmt.Appendf(b, "host b=%s n=%d started=%d failed=%d leaks=%d\n", r.Name, r.N, r.Started, r.Failed, r.Leaks.Count())
		b = appendSorted(b, "total", r.Totals)
		b = appendSorted(b, "vf", r.VFRelated)
	}
	return b, nil
}

func (it *hostIter) headline() string {
	s := "c=200 startup mean"
	for _, r := range it.res {
		s += fmt.Sprintf(" %s %.2fs (p99 %.2fs)", r.Name, r.Totals.Mean().Seconds(), r.Totals.P99().Seconds())
	}
	return s
}

// appendSorted renders a sample's values in ascending order.
func appendSorted(b []byte, tag string, s *stats.Sample) []byte {
	s.Sort()
	for _, d := range s.Values() {
		b = fmt.Appendf(b, "%s %d\n", tag, d)
	}
	return b
}

// --- fleet-100x20: BenchmarkFleet100x20's configuration -------------------

func fleet100x20() *workload {
	return &workload{
		name:      "fleet-100x20",
		setupReps: 1,
		prepare:   func(*env) error { return nil },
		setup: func(e *env) (iteration, error) {
			sp := e.tr.begin("fleet.New", "")
			f, err := fleet.New(fleet.Config{
				Baseline:  cluster.BaselineFastIOV,
				Policy:    fleet.PolicyLeastLoaded,
				HostSpecs: fleet.HeterogeneousSpecs(100),
				Requests:  100 * 20,
				Seed:      e.simSeed,
				Audit:     true,
			})
			e.tr.end(sp)
			if err != nil {
				return nil, err
			}
			e.timePlacement(f)
			return &fleetIter{e: e, f: f}, nil
		},
	}
}

type fleetIter struct {
	e   *env
	f   *fleet.Fleet
	res *fleet.Result
}

func (it *fleetIter) run() error {
	kw := it.e.watchKernel(it.f.K)
	sp := it.e.tr.begin("fleet.Fleet.Run", "")
	it.res = it.f.Run()
	it.e.tr.end(sp)
	kw.stop()
	it.f = nil
	return it.res.Err
}

func (it *fleetIter) check() ([]byte, error) {
	if err := fleetClean(it.res); err != nil {
		return nil, err
	}
	it.e.ls.add("fleet.rejected", float64(it.res.Rejected))
	return it.res.Fingerprint(), nil
}

func (it *fleetIter) headline() string {
	r := it.res
	return fmt.Sprintf("%d hosts, %d started, %d rejected, startup mean %.3fs p99 %.3fs, max devset queue %d",
		r.Hosts, r.Started, r.Rejected, r.Totals.Mean().Seconds(), r.Totals.P99().Seconds(), r.MaxQueuePeak())
}

func fleetClean(r *fleet.Result) error {
	if !r.Leaks.Clean() || !r.CleanPerHost() {
		return fmt.Errorf("fleet leak audit dirty: %s", r.Leaks)
	}
	return nil
}

// --- serve-crash-observed: serving under host crashes, every observer on --

const (
	serveRate      = 64
	serveCrashPlan = "host-crash@600ms:host=0,mtbf=2s;host-recover=300ms"
)

// observers selects the serving run's observers.
type observers struct {
	trace, metrics, journeys, alerts bool
}

var allObservers = observers{trace: true, metrics: true, journeys: true, alerts: true}

func serveConfig(baseline string, seed uint64, o observers) (serve.Config, error) {
	plan, err := fault.ParsePlan(serveCrashPlan)
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{
		Baseline: baseline,
		Policy:   serve.PolicySLOAware,
		Hosts:    serve.DefaultHosts,
		Rate:     serveRate,
		Seed:     seed,
		Faults:   plan,
		Trace:    o.trace,
		Metrics:  o.metrics,
		Journeys: o.journeys,
		Audit:    true,
	}
	if o.alerts {
		cfg.AlertSpec = experiments.DefaultSlowatchRules
	}
	return cfg, nil
}

func serveCrashObserved() *workload {
	return &workload{
		name:      "serve-crash-observed",
		setupReps: 1,
		prepare:   func(*env) error { return nil },
		setup: func(e *env) (iteration, error) {
			return newServeIter(e, allObservers)
		},
		extras: observerMatrix,
	}
}

type serveIter struct {
	e       *env
	obs     observers
	srvs    []*serve.Server
	res     []*serve.Result
	exports []byte // digests of every export, folded into the fingerprint
}

func newServeIter(e *env, o observers) (*serveIter, error) {
	it := &serveIter{e: e, obs: o}
	for _, b := range baselines {
		cfg, err := serveConfig(b, e.simSeed, o)
		if err != nil {
			return nil, err
		}
		sp := e.tr.begin("serve.New", b)
		s, err := serve.New(cfg)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		e.timePlacement(s.F)
		it.srvs = append(it.srvs, s)
	}
	return it, nil
}

func (it *serveIter) run() error {
	for i, s := range it.srvs {
		b := baselines[i]
		kw := it.e.watchKernel(s.F.K)
		sp := it.e.tr.begin("serve.Server.Run", b)
		res := s.Run()
		it.e.tr.end(sp)
		kw.stop()
		if res.Err != nil {
			return fmt.Errorf("%s: %w", b, res.Err)
		}
		it.res = append(it.res, res)
		if it.obs.journeys {
			if err := it.export("journey.Recorder.WriteLog", b, res.Journey.WriteLog); err != nil {
				return err
			}
			if err := it.export("journey.Recorder.WriteChrome", b, res.Journey.WriteChrome); err != nil {
				return err
			}
		}
		if it.obs.metrics {
			if err := it.export("metrics.Registry.WriteOpenMetrics", b, res.Fleet.Metrics.WriteOpenMetrics); err != nil {
				return err
			}
		}
	}
	it.srvs = nil
	return nil
}

// export writes one artefact into a digest, standing in for the file the
// command-line tool would write.
func (it *serveIter) export(call, baseline string, write func(io.Writer) error) error {
	d := digestWriter{h: sha256.New()}
	sp := it.e.tr.begin(call, baseline)
	err := write(&d)
	it.e.tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s %s: %w", call, baseline, err)
	}
	it.exports = fmt.Appendf(it.exports, "export %s %s bytes=%d sha256=%x\n", call, baseline, d.n, d.h.Sum(nil))
	return nil
}

type digestWriter struct {
	h hash.Hash
	n int64
}

func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (it *serveIter) check() ([]byte, error) {
	var b []byte
	for _, r := range it.res {
		if err := fleetClean(r.Fleet); err != nil {
			return nil, fmt.Errorf("%s: %w", r.Baseline, err)
		}
		b = append(b, r.Fingerprint()...)
		it.e.ls.acc("serve.arrived", float64(r.Arrived))
		it.e.ls.acc("serve.completed", float64(r.Completed))
		it.e.ls.acc("serve.shed", float64(r.Shed()))
		if r.Fleet.Trace != nil {
			it.e.ls.acc("trace.events", float64(r.Fleet.Trace.Len()))
		}
		if r.Journey != nil {
			it.e.ls.acc("journey.spans", float64(r.Journey.Len()))
		}
		if r.Fleet.Metrics != nil {
			it.e.ls.acc("metrics.samples", float64(r.Fleet.Metrics.Samples()))
		}
	}
	return append(b, it.exports...), nil
}

func (it *serveIter) headline() string {
	s := fmt.Sprintf("%g req/s, %s", float64(serveRate), serveCrashPlan)
	for _, r := range it.res {
		s += fmt.Sprintf(" | %s: arrived %d shed %d goodput %.1f/s p99 %.2fs crash-lost %d",
			r.Baseline, r.Arrived, r.Shed(), r.Goodput(), r.Sojourns.P99().Seconds(), r.CrashLost)
	}
	return s
}

// --- registry-n20: every registry experiment at -n 20 ---------------------

const registryN = 20

func registryN20() *workload {
	return &workload{
		name: "registry-n20",
		// NewSuite takes well under a microsecond; repeat it so setup_s is
		// steady.
		setupReps: 64,
		prepare:   func(*env) error { return nil },
		setup: func(e *env) (iteration, error) {
			sp := e.tr.begin("fastiov.NewSuite", "")
			s := fastiov.NewSuite(fastiov.RunConfig{Workers: 1, Seeds: []uint64{e.simSeed}})
			e.tr.end(sp)
			return &registryIter{e: e, s: s}, nil
		},
	}
}

type registryIter struct {
	e    *env
	s    *fastiov.Suite
	reps []*fastiov.Report
}

func (it *registryIter) run() error {
	var errs []error
	for _, x := range it.s.Experiments() {
		sp := it.e.tr.begin("fastiov.Suite.Run", x.ID)
		rep, err := it.s.Run(x.ID, registryN)
		it.e.tr.end(sp)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", x.ID, err))
			continue
		}
		it.reps = append(it.reps, rep)
	}
	return errors.Join(errs...)
}

func (it *registryIter) check() ([]byte, error) {
	var b []byte
	for _, r := range it.reps {
		b = append(b, r.Encode()...)
	}
	st := it.s.CacheStats()
	it.e.ls.add("harness.sim_runs", float64(st.Runs))
	it.e.ls.add("harness.cache_hits", float64(st.Hits))
	it.e.ls.add("harness.requests", float64(st.Runs+st.Hits))
	if st.Runs+st.Hits > 0 {
		it.e.ls.add("harness.hit_ratio", float64(st.Hits)/float64(st.Runs+st.Hits))
	}
	return b, nil
}

func (it *registryIter) headline() string {
	st := it.s.CacheStats()
	n := 0
	for _, r := range it.reps {
		n += len(r.Encode())
	}
	return fmt.Sprintf("%d reports, %d bytes encoded; scenario cache: %d sim runs, %d hits", len(it.reps), n, st.Runs, st.Hits)
}
