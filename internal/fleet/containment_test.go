package fleet

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/sim"
	"fastiov/internal/trace"
)

// containmentCfg is the containment sweep's fleet: two fastiov hosts and
// 40 starts spread over the default 2 s jitter.
func containmentCfg() Config {
	return Config{
		Baseline:  cluster.BaselineFastIOV,
		Policy:    PolicyLeastLoaded,
		HostSpecs: HeterogeneousSpecs(2),
		Requests:  40,
		Seed:      1,
		Audit:     true,
	}
}

// protocolInstants returns, per fastiovd protocol event on host 0 of a
// traced run, the instant 1 ns after the event began, so a crash there
// lands inside it. Each kind is thinned to at most perKind evenly spaced
// events. The kinds are:
//
//   - claim: a container's membw hold, which zeroes a page it claimed on
//     an EPT fault or its firmware on the instant-zeroing list;
//   - scrub: the scrubber daemon's membw hold of one page;
//   - wait: an EPT fault waiting for the scrubber's claim on its page;
//   - register: the bookkeeping sleep right after a container's first
//     allocation (its guest RAM) leaves the zone lock.
func protocolInstants(t *testing.T, tr *trace.Trace, perKind int) map[string][]time.Duration {
	t.Helper()
	const host = `"h000-`
	all := map[string][]time.Duration{}
	onHost := map[string]bool{} // procs seen holding a host-0 object
	type last struct {
		kind, obj string
		at        int64
	}
	prev := map[string]last{}
	registered := map[string]bool{}
	var waits []struct {
		proc string
		at   int64
	}
	for _, ln := range bytes.Split(tr.AppendCanonical(nil), []byte("\n")) {
		f := strings.Fields(string(ln))
		if len(f) != 7 {
			continue
		}
		at, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		id, err := strconv.Atoi(f[4][1:])
		if err != nil {
			t.Fatal(err)
		}
		proc := f[4]
		name := tr.ProcName(id)
		kind, obj := f[1], f[3]
		if strings.HasPrefix(obj, host) {
			onHost[proc] = true
		}
		inside := time.Duration(at + 1)
		switch {
		case kind == "acquire" && obj == host+`membw"` && name == "fastiovd-scrub":
			all["scrub"] = append(all["scrub"], inside)
		case kind == "acquire" && obj == host+`membw"`:
			all["claim"] = append(all["claim"], inside)
		case kind == "block" && obj == `"fastiovd-zero"`:
			waits = append(waits, struct {
				proc string
				at   int64
			}{proc, at})
		case kind == "block" && f[2] == "sleep" && !registered[proc]:
			if p := prev[proc]; p.kind == "release" && p.obj == host+`zone"` && p.at == at {
				all["register"] = append(all["register"], inside)
				registered[proc] = true
			}
		}
		prev[proc] = last{kind, obj, at}
	}
	for _, w := range waits {
		if onHost[w.proc] {
			all["wait"] = append(all["wait"], time.Duration(w.at+1))
		}
	}
	for kind, ats := range all {
		if len(ats) > perKind {
			thin := make([]time.Duration, perKind)
			for i := range thin {
				thin[i] = ats[i*len(ats)/perKind]
			}
			all[kind] = thin
		}
	}
	return all
}

// runAndRead runs cfg's fleet as Run does, except that before Finish's
// audit every surviving guest reads all of its RAM. A page a guest can
// reach that still holds another tenant's data then counts as a residual
// read whether or not the workload read it: the fleet's guests write each
// RAM page before they read it, so their own touches never read one.
func runAndRead(cfg Config) (*Result, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer f.K.Hold()()
	f.arrive()
	f.K.Run()
	for _, sbs := range f.live {
		for _, sb := range sbs {
			l := sb.MVM.Layout
			f.K.Go("read-ram", func(p *sim.Proc) {
				if err := sb.MVM.VM.TouchRange(p, l.RAMBase(), l.RAMBytes, false); err != nil {
					f.errs = append(f.errs, err)
				}
			})
		}
	}
	f.K.Run()
	res := f.Finish()
	return res, res.Err
}

// runBounded runs the fleet of plan through runAndRead and fails the test
// if the simulation has not ended after a minute of wall time: a proc
// parked forever while daemons keep simulated time moving never lets the
// kernel return. The abandoned goroutine spins until the test binary
// exits.
func runBounded(t *testing.T, plan string, cfg Config) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := runAndRead(cfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("%s: %v", plan, o.err)
		}
		return o.res
	case <-time.After(time.Minute):
		t.Fatalf("%s: the simulation has not ended after a minute", plan)
		return nil
	}
}

// TestContainmentUnderCrashes sweeps host and fastiovd crashes over a
// fastiov fleet: host 0 dies (host-crash) or loses its fastiovd daemon
// (daemon-crash) every 7 ms from 0 to 600 ms, and just inside fastiovd's
// protocol events of a traced crash-free run. Lazy zeroing is safe only if
// no guest ever reads another tenant's residual data (§4.2), so every run,
// including the final read of all surviving guests' RAM (runAndRead), must
// count zero residual reads, and its per-host and ledger-adjusted fleet
// audits must be clean.
func TestContainmentUnderCrashes(t *testing.T) {
	check := func(plan string, res *Result) {
		t.Helper()
		if n := res.Leaks.Before.ResidualReads + res.Leaks.After.ResidualReads; n != 0 {
			t.Errorf("%s: %d reads of residual data", plan, n)
		}
		for i, rep := range res.PerHost {
			if !rep.Clean() {
				t.Errorf("%s: host %d audit dirty:\n%s", plan, i, rep)
			}
		}
		if !res.Leaks.Clean() {
			t.Errorf("%s: ledger-adjusted fleet audit dirty:\n%s", plan, res.Leaks)
		}
	}
	check("no crash", runBounded(t, "no crash", containmentCfg()))
	traced := containmentCfg()
	traced.Trace = true
	res, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	byKind := protocolInstants(t, res.Trace, 4)
	var instants []time.Duration
	for at := time.Duration(0); at <= 600*time.Millisecond; at += 7 * time.Millisecond {
		instants = append(instants, at)
	}
	for _, kind := range []string{"claim", "scrub", "wait", "register"} {
		if len(byKind[kind]) == 0 {
			t.Errorf("the traced run has no %s event on host 0", kind)
		}
		instants = append(instants, byKind[kind]...)
	}
	for _, crash := range []string{"host-crash", "daemon-crash"} {
		fired := 0
		for _, at := range instants {
			plan := fmt.Sprintf("%s@%v:host=0", crash, at)
			cfg := containmentCfg()
			cfg.Faults = mustPlan(t, plan)
			res := runBounded(t, plan, cfg)
			fired += res.HostCrashes + res.DaemonCrashes
			check(plan, res)
		}
		if fired != len(instants) {
			t.Errorf("%d of %d %s clauses fired", fired, len(instants), crash)
		}
	}
}
