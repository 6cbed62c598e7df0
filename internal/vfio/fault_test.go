package vfio

import (
	"testing"
	"time"

	"fastiov/internal/fault"
	"fastiov/internal/sim"
)

// injectorFor builds an injector from a -faults spec, failing the test on
// grammar errors.
func injectorFor(t *testing.T, seed uint64, spec string) *fault.Injector {
	t.Helper()
	pl, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fault.NewInjector(seed, pl)
}

// retryPolicy is a fast deterministic policy for the reset tests: no
// jitter, no timeout, exponential 2ms/4ms/8ms backoff.
func retryPolicy(attempts int) fault.Policy {
	return fault.Policy{MaxAttempts: attempts, BaseDelay: 2 * time.Millisecond, Multiplier: 2}
}

func TestOpenRetriesFailedFLR(t *testing.T) {
	r := newRig(t, LockParentChild, 1)
	r.drv.Faults = injectorFor(t, 1, "vfio-reset:every=1,limit=2")
	r.drv.Retry = retryPolicy(4)
	vd := r.vds[0]
	r.k.Go("t", func(p *sim.Proc) {
		fd, retried, err := r.drv.OpenErr(p, vd)
		if err != nil {
			t.Fatal(err)
		}
		if fd <= 0 {
			t.Errorf("fd = %d", fd)
		}
		// Two failed FLRs back off 2ms then 4ms before the third succeeds.
		if retried != 6*time.Millisecond {
			t.Errorf("retried = %v, want 6ms", retried)
		}
	})
	r.k.Run()
	if r.drv.Stats.ResetRetries != 2 {
		t.Errorf("ResetRetries = %d, want 2", r.drv.Stats.ResetRetries)
	}
	if r.drv.Stats.ResetExhausted != 0 {
		t.Errorf("ResetExhausted = %d, want 0", r.drv.Stats.ResetExhausted)
	}
	if vd.OpenCount() != 1 || vd.Set.TotalOpen() != 1 {
		t.Errorf("open state = %d/%d, want 1/1", vd.OpenCount(), vd.Set.TotalOpen())
	}
}

func TestOpenFailsAfterFLRExhaustion(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	r.drv.Faults = injectorFor(t, 1, "vfio-reset:every=1")
	r.drv.Retry = retryPolicy(2)
	vd := r.vds[0]
	r.k.Go("t", func(p *sim.Proc) {
		fd, _, err := r.drv.OpenErr(p, vd)
		if err == nil {
			t.Fatal("open succeeded with every FLR failing")
		}
		if !fault.IsFault(err) {
			t.Errorf("exhaustion error %v not classified as fault", err)
		}
		if fd != 0 {
			t.Errorf("fd = %d on failed open", fd)
		}
	})
	r.k.Run()
	if r.drv.Stats.ResetExhausted != 1 {
		t.Errorf("ResetExhausted = %d, want 1", r.drv.Stats.ResetExhausted)
	}
	// A failed open must leave no devset state behind.
	if vd.OpenCount() != 0 || vd.Set.TotalOpen() != 0 {
		t.Errorf("open state = %d/%d after failed open, want 0/0", vd.OpenCount(), vd.Set.TotalOpen())
	}
}

func TestBusResetDegradesToSlotResets(t *testing.T) {
	r := newRig(t, LockGlobal, 4)
	// The devset-wide secondary reset fails once; member FLRs stay clean, so
	// the driver degrades to four slot resets and the devset reset succeeds.
	r.drv.Faults = injectorFor(t, 1, "bus-reset:every=1,limit=1")
	r.drv.Retry = retryPolicy(3)
	set := r.vds[0].Set
	r.k.Go("t", func(p *sim.Proc) {
		if err := r.drv.ResetSet(p, set); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.drv.Stats.BusResetFailures != 1 {
		t.Errorf("BusResetFailures = %d, want 1", r.drv.Stats.BusResetFailures)
	}
	if r.drv.Stats.SlotFallbacks != set.Members() {
		t.Errorf("SlotFallbacks = %d, want %d (one per member)", r.drv.Stats.SlotFallbacks, set.Members())
	}
}

func TestBusResetFailsWhenSlotFallbackExhausts(t *testing.T) {
	r := newRig(t, LockGlobal, 2)
	// Both the bus reset and every slot-level FLR fail: degradation runs out
	// of options and the devset reset surfaces the exhaustion.
	r.drv.Faults = injectorFor(t, 1, "bus-reset:every=1;vfio-reset:every=1")
	r.drv.Retry = retryPolicy(2)
	set := r.vds[0].Set
	r.k.Go("t", func(p *sim.Proc) {
		err := r.drv.ResetSet(p, set)
		if err == nil {
			t.Fatal("devset reset succeeded with every reset failing")
		}
		if !fault.IsFault(err) {
			t.Errorf("error %v not classified as fault", err)
		}
	})
	r.k.Run()
	if r.drv.Stats.BusResetFailures != 1 {
		t.Errorf("BusResetFailures = %d, want 1", r.drv.Stats.BusResetFailures)
	}
	if r.drv.Stats.SlotFallbacks != 1 {
		t.Errorf("SlotFallbacks = %d, want 1 (first member's FLR exhausts)", r.drv.Stats.SlotFallbacks)
	}
}

func TestFaultFreeDriverHasZeroStats(t *testing.T) {
	r := newRig(t, LockParentChild, 2)
	r.k.Go("t", func(p *sim.Proc) {
		for _, vd := range r.vds {
			r.drv.Open(p, vd)
			r.drv.Close(p, vd)
		}
		if err := r.drv.ResetSet(p, r.vds[0].Set); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.drv.Stats != (FaultStats{}) {
		t.Errorf("fault-free run accumulated stats %+v", r.drv.Stats)
	}
}
