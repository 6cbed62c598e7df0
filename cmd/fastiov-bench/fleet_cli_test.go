package main

import (
	"bytes"
	"strings"
	"testing"
)

// The fleet goldens pin the cluster-level placement surface end to end: the
// policy × baseline table (startup percentiles, deepest devset queue,
// placement spread, rejections) with the fleet-size ladder, plus the
// headline notes, at a small fixed fleet. Any unintended change to the
// scheduler scoring, the shared-kernel fleet boot, or the rendering shows
// up as a byte diff.
func TestGoldenFleetText(t *testing.T) {
	golden(t, "fleet_h8_n4.txt", []string{"-fleet", "-hosts", "8", "-n", "4"})
}

func TestGoldenFleetCSV(t *testing.T) {
	golden(t, "fleet_h8_n4.csv", []string{"-fleet", "-hosts", "8", "-n", "4", "-csv"})
}

// The per-policy summary restricts the sweep to one policy via -policy; the
// golden pins that the restriction reaches the experiment (only vf-aware
// rows, no cross-policy notes).
func TestGoldenFleetPolicyText(t *testing.T) {
	golden(t, "fleet_h8_n4_vfaware.txt", []string{"-fleet", "-hosts", "8", "-n", "4", "-policy", "vf-aware"})
}

// TestBadFleetPolicyExits2 checks -policy validation: an unknown policy
// is a usage error diagnosed before the fleet experiment runs, naming the
// bad value and the placement set.
func TestBadFleetPolicyExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fleet", "-hosts", "4", "-n", "2", "-policy", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2, stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{`unknown policy "bogus"`, "placement: random|rr|least-loaded|vf-aware"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("experiment ran despite the bad policy:\n%s", stdout.String())
	}
}

// TestFleetVerifyDeterminismCLI double-runs every fleet simulation and the
// whole experiment parallel+serial through the public flag, failing on any
// byte-level divergence in placements, queue peaks, or audits.
func TestFleetVerifyDeterminismCLI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	argv := []string{"-fleet", "-hosts", "6", "-n", "4", "-seeds", "2", "-verify-determinism"}
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "fleet") {
		t.Errorf("fleet table did not render:\n%s", stdout.String())
	}
}

// TestFleetHostsFlagChangesOutput checks -hosts reaches the experiment: the
// same sweep at different fleet sizes renders differently.
func TestFleetHostsFlagChangesOutput(t *testing.T) {
	var small, large, errBuf bytes.Buffer
	if code := run([]string{"-fleet", "-hosts", "4", "-n", "3"}, &small, &errBuf); code != 0 {
		t.Fatalf("hosts=4: exit %d, stderr: %s", code, errBuf.String())
	}
	if code := run([]string{"-fleet", "-hosts", "8", "-n", "3"}, &large, &errBuf); code != 0 {
		t.Fatalf("hosts=8: exit %d, stderr: %s", code, errBuf.String())
	}
	if stripTimes(small.String()) == stripTimes(large.String()) {
		t.Error("-hosts 4 and -hosts 8 rendered identically")
	}
}
