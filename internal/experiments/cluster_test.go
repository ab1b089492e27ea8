package experiments

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"memsim/internal/cluster"
	"memsim/internal/core"
)

// drillClusterConfig is a small two-system spec for checkpoint tests.
func drillClusterConfig() cluster.Config {
	base := core.Base()
	base.Channels = 1
	return cluster.Config{
		Systems: []cluster.SystemSpec{
			{Bench: "mcf", Seed: 1},
			{Bench: "swim", Seed: 2},
		},
		Base:         &base,
		MaxInstrs:    2000,
		WarmupInstrs: 500,
	}
}

// TestClusterKeyStable pins the key's determinism (it feeds checkpoint
// identity) and its sensitivity to the config.
func TestClusterKeyStable(t *testing.T) {
	cfg := drillClusterConfig()
	k1, k2 := ClusterKey(cfg), ClusterKey(cfg)
	if k1 != k2 {
		t.Fatalf("ClusterKey not stable: %q vs %q", k1, k2)
	}
	other := cfg
	other.MaxInstrs++
	if ClusterKey(other) == k1 {
		t.Fatal("ClusterKey ignores MaxInstrs")
	}
	if k1[0] != 'c' {
		t.Fatalf("ClusterKey %q lacks the cluster prefix", k1)
	}
}

// TestRunClustersCheckpointResume runs a cluster batch twice over one
// manifest: the second run must reuse the whole cluster entry
// bit-identically without re-simulating.
func TestRunClustersCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clusters.json")
	cfg := drillClusterConfig()

	opt := Options{Instrs: 2000, Warmup: 500, Parallelism: 1, Checkpoint: NewManifest(path)}
	r1, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r1.RunClusters([]cluster.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if c := r1.Counts(); c.Completed != 1 || c.Reused != 0 {
		t.Fatalf("first batch counts = %+v", c)
	}
	if err := opt.Checkpoint.Save(); err != nil {
		t.Fatal(err)
	}

	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalRuns() != 1 || m.Len() != 1 {
		t.Fatalf("manifest holds %d entries, %d runs; want 1, 1", m.Len(), m.TotalRuns())
	}
	r2, err := NewRunner(Options{Instrs: 2000, Warmup: 500, Parallelism: 1, Checkpoint: m})
	if err != nil {
		t.Fatal(err)
	}
	second, err := r2.RunClusters([]cluster.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if c := r2.Counts(); c.Reused != 1 || c.Completed != 0 {
		t.Fatalf("resume counts = %+v, want Reused 1", c)
	}
	if m.TotalRuns() != 1 {
		t.Fatalf("resume re-simulated: %d runs", m.TotalRuns())
	}
	a, _ := json.Marshal(first[0])
	b, _ := json.Marshal(second[0])
	if string(a) != string(b) {
		t.Fatal("reused cluster result differs from the original")
	}
}
