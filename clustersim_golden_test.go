package ecosched

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates the testdata golden files:
//
//	go test . -run PolicyReportGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// policyGoldenSeeds are the fixed spec seeds the policy golden covers.
var policyGoldenSeeds = []uint64{1, 2, 3, 5, 8, 13, 21, 34}

// TestPolicyReportGolden pins the scheduling decisions of the full
// policy combination (power cap, co-scheduling, price deferral) to a
// committed rendering: the committed powercap-smoke spec on eight seeds,
// each report's WriteText and WriteBench output concatenated. Replay
// fidelity compares two runs of the same code with each other; this
// compares today's code with the decisions it made when the golden was
// written, so a scheduling fast path that changes any decision fails
// here.
func TestPolicyReportGolden(t *testing.T) {
	var got bytes.Buffer
	for _, seed := range policyGoldenSeeds {
		spec := loadSpec(t, "powercap-smoke.json")
		spec.Seed = seed
		rep, err := RunClusterSpec(spec, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep.WriteText(&got)
		rep.WriteBench(&got)
	}
	path := filepath.Join("testdata", "powercap-smoke.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("policy reports differ from %s (run with -update-golden to regenerate):\n--- want ---\n%s--- got ---\n%s", path, want, got.Bytes())
	}
}
