package cluster

// Regression coverage for boot recipes: a host restored from a snapshot
// must be indistinguishable — down to the byte — from a host booted from
// scratch with the same inputs. Any divergence in the kernel clock, probe
// stream, PRNG position, or hardware state shows up as differing
// experiment results here.

import (
	"bytes"
	"fmt"
	"testing"
)

// experimentBytes canonically encodes everything an experiment observes:
// per-container totals, VF-related times, the full telemetry record, and
// the trace digest when recorded.
func experimentBytes(res *Result) []byte {
	var b []byte
	for _, d := range res.Totals.Values() {
		b = fmt.Appendf(b, "total %d\n", d)
	}
	for _, d := range res.VFRelated.Values() {
		b = fmt.Appendf(b, "vf %d\n", d)
	}
	if res.Trace != nil {
		b = fmt.Appendf(b, "trace events=%d fp=%016x\n", res.Trace.Len(), res.Trace.Fingerprint())
	}
	return res.Recorder.AppendCanonical(b)
}

func bootFor(t *testing.T, name string, traced bool) (HostSpec, Options) {
	t.Helper()
	opts, err := OptionsFor(name)
	if err != nil {
		t.Fatal(err)
	}
	opts.Trace = traced
	opts.Audit = true
	return DefaultHostSpec(), opts
}

// TestSnapshotRestoreByteIdentical runs the same startup experiment on a
// from-scratch host and on a snapshot-restored host and requires
// byte-identical results, traced and untraced, across baselines. The
// scoped row checks that the restore scopes the NIC name exactly once.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		traced bool
		scope  string
	}{
		{BaselineVanilla, false, ""},
		{BaselineVanilla, true, ""},
		{BaselineFastIOV, true, ""},
		{BaselinePre50, false, ""},
		{BaselineFastIOV, true, "h003-"},
	} {
		name := fmt.Sprintf("%s/trace=%v", tc.name, tc.traced)
		if tc.scope != "" {
			name += "/scope=" + tc.scope
		}
		t.Run(name, func(t *testing.T) {
			spec, opts := bootFor(t, tc.name, tc.traced)
			opts.Scope = tc.scope
			fresh, err := NewHost(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewHost(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := CaptureSnapshot(src)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := restored.Spec.NIC.Name, src.Spec.NIC.Name; got != want {
				t.Fatalf("restored NIC name %q, want %q", got, want)
			}
			want := fresh.StartupExperiment(50)
			got := restored.StartupExperiment(50)
			if want.Err != nil || got.Err != nil {
				t.Fatalf("experiment errors: fresh=%v restored=%v", want.Err, got.Err)
			}
			wb, gb := experimentBytes(want), experimentBytes(got)
			if !bytes.Equal(wb, gb) {
				t.Fatalf("restored host's experiment diverges from from-scratch boot\nfresh   %d bytes\nrestored %d bytes", len(wb), len(gb))
			}
		})
	}
}

// TestSnapshotSharedByConcurrentRestores restores the same snapshot twice
// and runs both: one snapshot must stamp out independent, identical hosts.
func TestSnapshotSharedByConcurrentRestores(t *testing.T) {
	for _, tc := range []struct {
		name      string
		slotReset bool
	}{
		{BaselineVanilla, false},
		{BaselineFastIOV, false},
		{BaselinePre50, false},
		{BaselineVanilla, true},
	} {
		t.Run(fmt.Sprintf("%s/slot-reset=%v", tc.name, tc.slotReset), func(t *testing.T) {
			spec, opts := bootFor(t, tc.name, true)
			spec.NIC.SlotReset = tc.slotReset
			src, err := NewHost(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := CaptureSnapshot(src)
			if err != nil {
				t.Fatal(err)
			}
			a, err := RestoreSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RestoreSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			ra := a.StartupExperiment(30)
			rb := b.StartupExperiment(30)
			if ra.Err != nil || rb.Err != nil {
				t.Fatalf("experiment errors: %v / %v", ra.Err, rb.Err)
			}
			if !bytes.Equal(experimentBytes(ra), experimentBytes(rb)) {
				t.Fatal("two restores of one snapshot produced diverging experiments")
			}
		})
	}
}

// TestSnapshotCanonicalDeterministic captures two independent boots of the
// same inputs and requires both recipes to be exactly those inputs, scoped
// and unscoped.
func TestSnapshotCanonicalDeterministic(t *testing.T) {
	for _, scope := range []string{"", "h003-"} {
		spec, opts := bootFor(t, BaselineVanilla, false)
		opts.Scope = scope
		for range 2 {
			h, err := NewHost(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := CaptureSnapshot(h)
			if err != nil {
				t.Fatal(err)
			}
			if want := (Snapshot{Spec: spec, Opts: opts}); *snap != want {
				t.Fatalf("scope %q: captured recipe %+v, want the boot inputs %+v", scope, *snap, want)
			}
		}
	}
}

// TestSnapshotRejectsNonPristineHost pins the capture precondition: a host
// that has already run work cannot be snapshotted.
func TestSnapshotRejectsNonPristineHost(t *testing.T) {
	spec, opts := bootFor(t, BaselineVanilla, false)
	h, err := NewHost(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res := h.StartupExperiment(5); res.Err != nil {
		t.Fatal(res.Err)
	}
	if _, err := CaptureSnapshot(h); err == nil {
		t.Fatal("CaptureSnapshot accepted a host with completed work; want pristine-boot error")
	}
}
