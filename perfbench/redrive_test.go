package main

import (
	"testing"

	"ecosched"
	"ecosched/internal/workload"
)

// TestRedriveMatchesRunClusterSpec pins the traced re-drive to the
// simulator it re-implements: on small copies of both cluster specs,
// traced and untraced, the re-drive must reproduce the accounting
// totals, makespan, cluster energy and policy counters of
// RunClusterSpec with one lane exactly.
func TestRedriveMatchesRunClusterSpec(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		subs       int
		seed       uint64
		edit       func(*workload.Spec)
	}{
		{"cluster", "cluster-1k-1m.json", 20000, 3, nil},
		{"cluster-policy", "powercap-smoke.json", 1500, 5, nil},
		// A small, congested cluster whose interactive users submit to
		// both multifactor partitions, so the fair-share usage the
		// barriers replicate decides the dispatch order.
		{"shared-users", "cluster-1k-1m.json", 6000, 7, func(s *workload.Spec) {
			s.Cluster.Partitions[0].Nodes = 12
			s.Cluster.Partitions[1].Nodes = 4
			for i := range s.Cluster.Partitions {
				s.Cluster.Partitions[i].Policy = "multifactor"
			}
			s.Clients[1].Jobs.Partitions = []workload.PartitionWeight{{Name: "batch", Weight: 1}, {Name: "debug", Weight: 1}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := loadSpec(tc.file, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			spec.MaxSubmissions = tc.subs
			if tc.edit != nil {
				tc.edit(&spec)
				if err := spec.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := ecosched.RunClusterSpec(spec, nil, ecosched.WithLanes(1))
			if err != nil {
				t.Fatal(err)
			}
			want := outcomeOf(rep)
			if want.Submissions != tc.subs || want.Totals.Completed == 0 {
				t.Fatalf("reference run is vacuous: %+v", want)
			}
			if pol := want.Policy; spec.Policy != nil && (pol.CapDenials == 0 || pol.CoScheduled == 0 || pol.DeferredJobs == 0) {
				t.Fatalf("reference run exercises no policy: %+v", pol)
			}
			for _, tr := range []*simTrace{nil, {}} {
				got, err := redrive(spec, tr)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("re-drive (traced=%v) diverged from RunClusterSpec:\n got %+v\nwant %+v", tr != nil, got, want)
				}
			}
		})
	}
}
