package fleet

import (
	"reflect"
	"testing"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
)

// replayedStart is one start a fleet placed: the container id and the
// instant it arrived at its host.
type replayedStart struct {
	id int
	at time.Duration
}

// startSpans returns container id's root span and its stage spans in
// recording order. Parent ids index the recorder, which holds other
// containers too, so they are cleared.
func startSpans(rec *telemetry.Recorder, id int) []telemetry.Span {
	root, ok := rec.RootOf(id)
	if !ok {
		return nil
	}
	out := []telemetry.Span{rec.Span(root)}
	for _, c := range rec.Children(root) {
		sp := rec.Span(c)
		sp.Parent = 0
		out = append(out, sp)
	}
	return out
}

// replayDiffs runs a fault-free fleet by driving Dispatch at drawn arrival
// instants, then replays each host's starts alone: a standalone host booted
// with cluster.NewHost from the same spec and options, each start run with
// StartOne at its recorded arrival instant. It returns how many starts
// recorded different root or stage spans alone than in the fleet, out of
// how many starts were placed.
func replayDiffs(t *testing.T, baseline, policy string) (diffs, starts int) {
	t.Helper()
	cfg := Config{Baseline: baseline, Policy: policy, HostSpecs: HeterogeneousSpecs(4), Requests: 60, Seed: 7}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]time.Duration, cfg.Requests)
	sim.NewRand(cfg.Seed).Durations(arrivals, DefaultJitter)
	placed := make([][]replayedStart, len(f.Hosts))
	for i, at := range arrivals {
		id := i
		f.K.GoAtName(at, sim.DecimalName("ctr-", id), func(p *sim.Proc) {
			host, _, _, err := f.Dispatch(p, id)
			if host < 0 {
				return // rejected: no host in capacity
			}
			if err != nil {
				t.Errorf("ctr-%d on host %d: %v", id, host, err)
				return
			}
			placed[host] = append(placed[host], replayedStart{id, at})
		})
	}
	f.K.Run()

	for hi, list := range placed {
		h, err := cluster.NewHost(cfg.HostSpecs[hi], f.Hosts[hi].Opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range list {
			st := st
			h.K.GoAtName(st.at, sim.DecimalName("ctr-", st.id), func(p *sim.Proc) {
				if _, err := h.StartOne(p, st.id); err != nil {
					t.Errorf("replayed ctr-%d on host %d: %v", st.id, hi, err)
				}
			})
		}
		h.K.Run()
		for _, st := range list {
			starts++
			inFleet, alone := startSpans(f.Hosts[hi].Rec, st.id), startSpans(h.Rec, st.id)
			if len(inFleet) == 0 {
				t.Errorf("ctr-%d on host %d: no spans in the fleet", st.id, hi)
			}
			if !reflect.DeepEqual(inFleet, alone) {
				if diffs == 0 {
					t.Logf("first difference, ctr-%d on host %d:\n fleet %+v\n alone %+v", st.id, hi, inFleet, alone)
				}
				diffs++
			}
		}
	}
	return diffs, starts
}

// TestFleetHostReplaysAlone is the oracle that fleet hosts are coupled by
// nothing but the shared PRNG stream: for the baselines whose starts draw
// nothing from it (no-net and ipvtap never poll a VF; FastIOV draws its
// poll delay only in LaunchApp), every host's starts replayed alone record
// exactly the spans they recorded in the fleet, under every policy.
func TestFleetHostReplaysAlone(t *testing.T) {
	for _, baseline := range []string{cluster.BaselineNoNet, cluster.BaselineIPvtap, cluster.BaselineFastIOV} {
		for _, policy := range Policies() {
			t.Run(baseline+"/"+policy, func(t *testing.T) {
				diffs, starts := replayDiffs(t, baseline, policy)
				if starts == 0 {
					t.Fatal("the fleet placed no starts")
				}
				if diffs != 0 {
					t.Errorf("%d of %d starts recorded different spans alone than in the fleet", diffs, starts)
				}
			})
		}
	}
}
