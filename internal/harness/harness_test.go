package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func job(scope, params string, seed uint64, fn func() (any, error)) Job {
	return Job{Key: Key{Scope: scope, Params: params, Seed: seed}, Fn: fn}
}

func TestDoPreservesInputOrder(t *testing.T) {
	p := New(4, false)
	var jobs []Job
	for i := 0; i < 50; i++ {
		i := i
		jobs = append(jobs, job("t", fmt.Sprintf("i=%d", i), 1, func() (any, error) {
			return i * i, nil
		}))
	}
	got, err := p.Do(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v.(int) != i*i {
			t.Fatalf("slot %d: got %v, want %d", i, v, i*i)
		}
	}
}

func TestCacheComputesEachKeyOnce(t *testing.T) {
	p := New(8, false)
	var runs atomic.Int64
	mk := func(params string) Job {
		return job("t", params, 1, func() (any, error) {
			runs.Add(1)
			return params, nil
		})
	}
	// 40 jobs over 4 distinct keys, all in one batch: concurrent duplicate
	// keys must coalesce onto one execution.
	var jobs []Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, mk(fmt.Sprintf("k=%d", i%4)))
	}
	if _, err := p.Do(jobs); err != nil {
		t.Fatal(err)
	}
	// Second batch: fully cached.
	if _, err := p.Do(jobs); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("executions = %d, want 4", got)
	}
	st := p.Stats()
	if st.Runs != 4 || st.Hits != 76 {
		t.Fatalf("stats = %+v, want Runs=4 Hits=76", st)
	}
}

func TestSeedIsPartOfTheKey(t *testing.T) {
	p := New(2, false)
	var runs atomic.Int64
	mk := func(seed uint64) Job {
		return job("t", "same", seed, func() (any, error) {
			runs.Add(1)
			return seed, nil
		})
	}
	got, err := p.Do([]Job{mk(1), mk(2), mk(1), mk(2)})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("executions = %d, want 2", runs.Load())
	}
	if got[0].(uint64) != 1 || got[1].(uint64) != 2 {
		t.Fatalf("results = %v", got)
	}
}

func TestDoAggregatesAllErrors(t *testing.T) {
	p := New(3, false)
	boom := func(msg string) Job {
		return job("t", msg, 1, func() (any, error) { return nil, errors.New(msg) })
	}
	ok := job("t", "fine", 1, func() (any, error) { return "ok", nil })
	got, err := p.Do([]Job{boom("first"), ok, boom("second")})
	if err == nil {
		t.Fatal("want aggregated error")
	}
	for _, want := range []string{"first", "second"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if got[1] != "ok" {
		t.Fatalf("healthy job lost: %v", got[1])
	}
	if got[0] != nil || got[2] != nil {
		t.Fatalf("failed slots should be nil: %v", got)
	}
}

func TestErrorsAreCachedAndDeduplicated(t *testing.T) {
	p := New(2, false)
	var runs atomic.Int64
	mk := func() Job {
		return job("t", "bad", 1, func() (any, error) {
			runs.Add(1)
			return nil, errors.New("kaput")
		})
	}
	_, err := p.Do([]Job{mk(), mk(), mk()})
	if err == nil {
		t.Fatal("want error")
	}
	if runs.Load() != 1 {
		t.Fatalf("executions = %d, want 1 (failures cache too)", runs.Load())
	}
	if n := strings.Count(err.Error(), "kaput"); n != 1 {
		t.Fatalf("error %q repeats the same failure %d times", err, n)
	}
}

func TestVerifyModeCatchesNondeterminism(t *testing.T) {
	p := New(1, true)
	var calls atomic.Int64
	bad := Job{
		Key: Key{Scope: "t", Params: "flaky", Seed: 1},
		Fn: func() (any, error) {
			return fmt.Sprintf("call-%d", calls.Add(1)), nil
		},
		Fingerprint: func(v any) ([]byte, error) { return []byte(v.(string)), nil },
	}
	_, err := p.Do([]Job{bad})
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("want DivergenceError, got %v", err)
	}
	if div.Offset != 5 {
		t.Fatalf("divergence offset = %d, want 5", div.Offset)
	}

	good := Job{
		Key:         Key{Scope: "t", Params: "stable", Seed: 1},
		Fn:          func() (any, error) { return "same", nil },
		Fingerprint: func(v any) ([]byte, error) { return []byte(v.(string)), nil },
	}
	if _, err := p.Do([]Job{good}); err != nil {
		t.Fatalf("deterministic job failed verification: %v", err)
	}
	if st := p.Stats(); st.Verified != 2 {
		t.Fatalf("stats = %+v, want Verified=2", st)
	}
}

func TestWorkersActuallyRunConcurrently(t *testing.T) {
	// With 4 workers, 4 jobs that each wait for every other job to have
	// started can only finish if they truly overlap.
	p := New(4, false)
	var started atomic.Int64
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, job("t", fmt.Sprintf("barrier-%d", i), 1, func() (any, error) {
			started.Add(1)
			deadline := time.Now().Add(5 * time.Second)
			for started.Load() < 4 {
				if time.Now().After(deadline) {
					return nil, errors.New("workers did not overlap")
				}
				time.Sleep(time.Millisecond)
			}
			return true, nil
		}))
	}
	if _, err := p.Do(jobs); err != nil {
		t.Fatal(err)
	}
}

func TestFirstDivergence(t *testing.T) {
	off, detail := FirstDivergence([]byte("abcdef"), []byte("abcXef"))
	if off != 3 {
		t.Fatalf("offset = %d, want 3", off)
	}
	if !strings.Contains(detail, "abcdef") || !strings.Contains(detail, "abcXef") {
		t.Fatalf("detail = %q", detail)
	}
	if off, _ := FirstDivergence([]byte("same"), []byte("same")); off != -1 {
		t.Fatalf("identical inputs: offset = %d, want -1", off)
	}
	// Prefix relationship: divergence at the shorter length.
	if off, _ := FirstDivergence([]byte("ab"), []byte("abc")); off != 2 {
		t.Fatalf("prefix: offset = %d, want 2", off)
	}
}
