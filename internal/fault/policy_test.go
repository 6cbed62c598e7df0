package fault

import (
	"errors"
	"testing"
	"time"

	"fastiov/internal/sim"
)

// runSim executes fn on a one-proc kernel.
func runSim(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	k := sim.NewKernel()
	k.Go("test", fn)
	k.Run()
}

// alwaysFail returns an injector that fails every occurrence of
// SiteVFIOReset, capped at limit injections (0 = uncapped).
func alwaysFail(limit int) *Injector {
	pl := NewPlan()
	pl.Set(SiteVFIOReset, Rule{EveryN: 1, Limit: limit})
	return NewInjector(1, pl)
}

func TestDelayTable(t *testing.T) {
	exp := Policy{BaseDelay: 2 * time.Millisecond, Multiplier: 2, MaxDelay: 50 * time.Millisecond}
	cases := []struct {
		name  string
		pol   Policy
		retry int
		want  time.Duration
	}{
		{"first", exp, 1, 2 * time.Millisecond},
		{"doubles", exp, 2, 4 * time.Millisecond},
		{"exponential", exp, 4, 16 * time.Millisecond},
		{"capped", exp, 10, 50 * time.Millisecond},
		{"zero-policy-defaults-1ms", Policy{}, 1, time.Millisecond},
		{"zero-policy-no-growth", Policy{}, 7, time.Millisecond},
		{"multiplier-below-1-clamped", Policy{BaseDelay: 3 * time.Millisecond, Multiplier: 0.5}, 5, 3 * time.Millisecond},
		{"no-cap-grows", Policy{BaseDelay: time.Millisecond, Multiplier: 10}, 3, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := c.pol.Delay(c.retry, nil); got != c.want {
			t.Errorf("%s: Delay(%d) = %v, want %v", c.name, c.retry, got, c.want)
		}
	}
}

func TestDelayJitterDeterminism(t *testing.T) {
	pol := Policy{BaseDelay: 10 * time.Millisecond, Multiplier: 2, MaxDelay: time.Second, JitterFrac: 0.2}
	seq := func(seed uint64) []time.Duration {
		rng := sim.NewRand(seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = pol.Delay(i+1, rng)
		}
		return out
	}
	a, b := seq(9), seq(9)
	jittered := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retry %d: same seed gave %v then %v", i+1, a[i], b[i])
		}
		if a[i] != pol.Delay(i+1, nil) {
			jittered = true
		}
	}
	if !jittered {
		t.Error("JitterFrac=0.2 never moved a delay off its unjittered value")
	}
	// A nil rng must not draw at all: delays are the pure exponential ramp.
	if pol.Delay(1, nil) != 10*time.Millisecond {
		t.Errorf("nil-rng Delay(1) = %v, want 10ms", pol.Delay(1, nil))
	}
}

func TestDoSuccessImmediate(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		calls := 0
		err := Do(p, DefaultPolicy(), nil, "s", func() error { calls++; return nil }, nil)
		if err != nil || calls != 1 {
			t.Errorf("err=%v calls=%d", err, calls)
		}
		if p.Now() != 0 {
			t.Errorf("successful first try advanced time to %v", p.Now())
		}
	})
}

func TestDoGenuineErrorNotRetried(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		boom := errors.New("boom")
		calls := 0
		err := Do(p, DefaultPolicy(), alwaysFail(0), "s", func() error { calls++; return boom }, nil)
		if !errors.Is(err, boom) {
			t.Errorf("err = %v, want boom unchanged", err)
		}
		if calls != 1 {
			t.Errorf("genuine error retried: %d calls", calls)
		}
		if IsFault(err) {
			t.Error("genuine error classified as fault")
		}
	})
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		inj := alwaysFail(2) // first two occurrences fail, then clean
		pol := Policy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, Multiplier: 2}
		calls := 0
		var waits []time.Duration
		err := Do(p, pol, inj, "s", func() error {
			calls++
			return inj.Fail(SiteVFIOReset)
		}, func(ws, we time.Duration) { waits = append(waits, we-ws) })
		if err != nil {
			t.Fatal(err)
		}
		if calls != 3 {
			t.Errorf("calls = %d, want 3", calls)
		}
		if len(waits) != 2 || waits[0] != 2*time.Millisecond || waits[1] != 4*time.Millisecond {
			t.Errorf("backoff spans = %v, want [2ms 4ms]", waits)
		}
		if p.Now() != 6*time.Millisecond {
			t.Errorf("clock at %v, want 6ms of backoff", p.Now())
		}
	})
}

func TestDoExhaustsAttempts(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		inj := alwaysFail(0)
		pol := Policy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, Multiplier: 2}
		calls := 0
		err := Do(p, pol, inj, "flr", func() error {
			calls++
			return inj.Fail(SiteVFIOReset)
		}, nil)
		var ex *ExhaustedError
		if !errors.As(err, &ex) {
			t.Fatalf("err = %v, want *ExhaustedError", err)
		}
		if ex.Stage != "flr" || ex.Attempts != 3 || ex.TimedOut {
			t.Errorf("exhaustion = %+v", ex)
		}
		if ex.Elapsed != 6*time.Millisecond {
			t.Errorf("Elapsed = %v, want 6ms", ex.Elapsed)
		}
		if calls != 3 {
			t.Errorf("calls = %d, want 3", calls)
		}
		if !IsInjected(err) || !IsFault(err) {
			t.Error("exhausted injected fault not classified as fault")
		}
	})
}

func TestDoTimeoutClampsMidBackoff(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		inj := alwaysFail(0)
		// Attempt 1 fails at t=0, backs off 10ms. Attempt 2 fails at t=10ms;
		// the next 10ms backoff would cross the 15ms deadline, so Do sleeps
		// only the remaining 5ms and fails the stage exactly at the deadline.
		pol := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Multiplier: 1, Timeout: 15 * time.Millisecond}
		calls := 0
		err := Do(p, pol, inj, "s", func() error {
			calls++
			return inj.Fail(SiteVFIOReset)
		}, nil)
		var ex *ExhaustedError
		if !errors.As(err, &ex) {
			t.Fatalf("err = %v, want *ExhaustedError", err)
		}
		if !ex.TimedOut || ex.Attempts != 2 {
			t.Errorf("exhaustion = %+v, want timed out after 2 attempts", ex)
		}
		if calls != 2 {
			t.Errorf("calls = %d, want 2 (no attempt after the deadline)", calls)
		}
		if p.Now() != 15*time.Millisecond {
			t.Errorf("stage ended at %v, want exactly the 15ms deadline", p.Now())
		}
	})
}

func TestDoTimeoutExpiredBeforeBackoff(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		inj := alwaysFail(0)
		// The operation itself overruns the stage budget: by the time the
		// first attempt fails the deadline has passed, so Do neither sleeps
		// nor retries.
		pol := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Multiplier: 1, Timeout: 15 * time.Millisecond}
		calls := 0
		err := Do(p, pol, inj, "s", func() error {
			calls++
			p.Sleep(20 * time.Millisecond)
			return inj.Fail(SiteVFIOReset)
		}, nil)
		var ex *ExhaustedError
		if !errors.As(err, &ex) {
			t.Fatalf("err = %v, want *ExhaustedError", err)
		}
		if !ex.TimedOut || ex.Attempts != 1 || calls != 1 {
			t.Errorf("exhaustion = %+v calls=%d, want timeout after 1 attempt", ex, calls)
		}
		if p.Now() != 20*time.Millisecond {
			t.Errorf("clock at %v, want 20ms (no backoff sleep past the deadline)", p.Now())
		}
	})
}

func TestDoZeroAttemptsActsAsOne(t *testing.T) {
	runSim(t, func(p *sim.Proc) {
		inj := alwaysFail(0)
		calls := 0
		err := Do(p, Policy{}, inj, "s", func() error {
			calls++
			return inj.Fail(SiteVFIOReset)
		}, nil)
		var ex *ExhaustedError
		if !errors.As(err, &ex) || ex.Attempts != 1 || calls != 1 {
			t.Errorf("err=%v calls=%d, want single-attempt exhaustion", err, calls)
		}
	})
}

func TestDoNilInjectorNoJitterDraws(t *testing.T) {
	// With a nil injector the retry path still works for callers whose op
	// produces injected errors from elsewhere; jitter simply stays off.
	runSim(t, func(p *sim.Proc) {
		other := alwaysFail(0)
		pol := Policy{MaxAttempts: 2, BaseDelay: 3 * time.Millisecond, Multiplier: 2, JitterFrac: 0.5}
		err := Do(p, pol, nil, "s", func() error { return other.Fail(SiteVFIOReset) }, nil)
		if !IsFault(err) {
			t.Fatalf("err = %v", err)
		}
		if p.Now() != 3*time.Millisecond {
			t.Errorf("clock at %v, want unjittered 3ms backoff", p.Now())
		}
	})
}
