package cluster

// Regression coverage for boot-prefix snapshot transparency: a host
// restored from a snapshot must be indistinguishable — down to the byte —
// from a host booted from scratch with the same inputs. Any divergence in
// the kernel clock, probe stream, PRNG position, or hardware state shows
// up as differing experiment results here.

import (
	"bytes"
	"fmt"
	"testing"

	"fastiov/internal/harness"
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
// byte-identical results, traced and untraced, across baselines.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		traced bool
	}{
		{BaselineVanilla, false},
		{BaselineVanilla, true},
		{BaselineFastIOV, true},
		{BaselinePre50, false},
	} {
		t.Run(fmt.Sprintf("%s/trace=%v", tc.name, tc.traced), func(t *testing.T) {
			spec, opts := bootFor(t, tc.name, tc.traced)
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
// and runs both: one immutable master must stamp out independent,
// identical hosts. The restored hosts copy the master's VF, PCI device and
// VFIO tables by value, so the master's canonical encoding must also be
// unchanged after both have run: a clone aliasing the master would show
// up there.
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
			before := snap.AppendCanonical(nil)
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
			if after := snap.AppendCanonical(nil); !bytes.Equal(before, after) {
				off, detail := harness.FirstDivergence(before, after)
				t.Fatalf("restored hosts' runs changed the snapshot at byte %d: %s", off, detail)
			}
		})
	}
}

// TestSnapshotCanonicalDeterministic captures two independent boots of the
// same inputs and requires byte-identical canonical encodings (the check
// -verify-determinism performs on the boot cache).
func TestSnapshotCanonicalDeterministic(t *testing.T) {
	spec, opts := bootFor(t, BaselineVanilla, false)
	var caps [2][]byte
	for i := range caps {
		h, err := NewHost(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := CaptureSnapshot(h)
		if err != nil {
			t.Fatal(err)
		}
		caps[i] = snap.AppendCanonical(nil)
	}
	if !bytes.Equal(caps[0], caps[1]) {
		t.Fatalf("double-boot canonical encodings diverge:\n%s\nvs\n%s", caps[0], caps[1])
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
