package main

import (
	"fmt"
	"time"
)

// observerConfigs is the observer matrix of serve-crash-observed's traced
// run. Alert rules read the metrics registry, so alerts run only in "all".
var observerConfigs = []struct {
	name string
	o    observers
}{
	{"off", observers{}},
	{"trace", observers{trace: true}},
	{"metrics", observers{metrics: true}},
	{"journeys", observers{journeys: true}},
	{"all", allObservers},
}

// canonicalServe checks a serving iteration by its observer-free canonical
// encoding, which every observer configuration must reproduce exactly.
type canonicalServe struct{ *serveIter }

func (it canonicalServe) check() ([]byte, error) {
	var b []byte
	for _, r := range it.res {
		if err := fleetClean(r.Fleet); err != nil {
			return nil, fmt.Errorf("%s: %w", r.Baseline, err)
		}
		b = append(b, r.Canonical()...)
	}
	return b, nil
}

// observerMatrix runs the serving window under each observer configuration
// in rounds until the deadline, and reports each observer's run-time
// overhead and retained heap against the all-off configuration.
func observerMatrix(e *env, ls *layers, v *verifier, until time.Time) error {
	pe := &env{simSeed: e.simSeed}
	var ref string
	for round := 0; round == 0 || time.Now().Before(until); round++ {
		for _, c := range observerConfigs {
			o := c.o
			w := &workload{setupReps: 1, setup: func(e *env) (iteration, error) {
				it, err := newServeIter(e, o)
				if err != nil {
					return nil, err
				}
				return canonicalServe{it}, nil
			}}
			s := measure(w, pe)
			v.attempted++
			if s.err != nil {
				v.fail("observers %s: %v", c.name, s.err)
				continue
			}
			sum := checksum(s.fp)
			if ref == "" {
				ref = sum
			}
			if sum != ref {
				v.fail("observers %s: canonical serving output %s differs from observers off %s", c.name, sum, ref)
			}
			ls.add("obs.run_s."+c.name, s.run.Seconds())
			ls.add("obs.retained_mb."+c.name, float64(s.retained)/1e6)
		}
	}
	off := ls.median("obs.run_s.off")
	for _, c := range observerConfigs[1:] {
		ls.add("obs.overhead_s."+c.name, ls.median("obs.run_s."+c.name)-off)
	}
	return nil
}
