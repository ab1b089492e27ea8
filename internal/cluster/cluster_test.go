package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"memsim/internal/core"
	"memsim/internal/dram"
	"memsim/internal/harden"
	"memsim/internal/obs"
	"memsim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// testConfig is the canonical 2-system interference config the
// deterministic tests run: a bandwidth hog (swim) co-running with a
// pointer chaser (mcf) on two shared channels, small enough to finish
// in tens of milliseconds.
func testConfig() Config {
	return Config{
		Systems: []SystemSpec{
			{Bench: "mcf", Seed: 11},
			{Bench: "swim", Seed: 12},
		},
		Base:         baseChannels(2),
		MaxInstrs:    8_000,
		WarmupInstrs: 1_000,
		Obs:          obs.Config{Metrics: true},
	}
}

// baseChannels is core.Base() on n channels of its 2 devices each.
func baseChannels(n int) *core.Config {
	base := core.Base()
	base.Channels = n
	return &base
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func marshal(t *testing.T, res Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeterminismAcrossGOMAXPROCS is the CI determinism gate: the
// parallel engine at GOMAXPROCS=1 and GOMAXPROCS=8 must produce
// byte-identical merged Results (which embed every system's Result
// and ObsMetricsDelta), and both must match the sequential reference.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	cfg := testConfig()
	seq := marshal(t, mustRun(t, cfg))

	cfg.Parallel = true
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []byte
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		got := marshal(t, mustRun(t, cfg))
		if !bytes.Equal(got, seq) {
			t.Fatalf("GOMAXPROCS=%d parallel result differs from sequential reference", procs)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatal("parallel results differ between GOMAXPROCS=1 and GOMAXPROCS=8")
		}
	}
}

// TestGoldenCluster pins the merged Result of the canonical 2-system
// run against a checked-in fixture; regenerate with
//
//	go test ./internal/cluster -run TestGoldenCluster -update
func TestGoldenCluster(t *testing.T) {
	got := marshal(t, mustRun(t, testConfig()))
	path := filepath.Join("testdata", "golden_cluster.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result drifted from golden fixture %s (re-run with -update if intended)\ngot: %s", path, got)
	}
}

// TestInterferenceMetrics checks the headline multi-programmed
// numbers on a 4-system mix: per-system IPC, occupancy shares that
// sum to one, weighted speedup, and slowdowns >= ~1.
func TestInterferenceMetrics(t *testing.T) {
	cfg := Config{
		Systems: []SystemSpec{
			{Bench: "mcf", Seed: 1},
			{Bench: "swim", Seed: 2},
			{Bench: "facerec", Seed: 3},
			{Bench: "twolf", Seed: 4},
		},
		Base:      baseChannels(2),
		MaxInstrs: 4_000,
	}
	res, err := RunWithBaselines(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var shareSum float64
	for _, s := range res.Systems {
		if s.Result.IPC <= 0 {
			t.Errorf("%s: IPC %v not positive", s.Label, s.Result.IPC)
		}
		if s.IPCAlone <= 0 {
			t.Errorf("%s: IPCAlone %v not positive", s.Label, s.IPCAlone)
		}
		if s.Slowdown < 0.99 {
			t.Errorf("%s: slowdown %v below 1: sharing made it faster than running alone", s.Label, s.Slowdown)
		}
		shareSum += s.OccupancyShare
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Errorf("occupancy shares sum to %v, want 1", shareSum)
	}
	if res.WeightedSpeedup <= 0 || res.WeightedSpeedup > float64(len(cfg.Systems)) {
		t.Errorf("weighted speedup %v out of (0, %d]", res.WeightedSpeedup, len(cfg.Systems))
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Errorf("fairness %v out of (0, 1]", res.Fairness)
	}
}

// TestClusterMetricsLabels checks the fabric-level series carry
// per-system and per-channel labels.
func TestClusterMetricsLabels(t *testing.T) {
	res := mustRun(t, testConfig())
	if res.ClusterMetrics == nil {
		t.Fatal("metrics enabled but ClusterMetrics nil")
	}
	wantSubstr := []string{
		`memsim_cluster_share_grants_total{class=demand,system=sys0-mcf}`,
		`memsim_cluster_share_data_time_ps{system=sys1-swim}`,
		`memsim_cluster_channel_data_busy_ps{channel=1}`,
	}
	for _, w := range wantSubstr {
		if _, ok := res.ClusterMetrics[w]; !ok {
			t.Errorf("missing cluster metric %q", w)
		}
	}
	for i, s := range res.Systems {
		if s.Metrics == nil {
			t.Errorf("system %d: per-system metrics nil", i)
		}
	}
}

// configFields returns the fields of err's *harden.ConfigError.
func configFields(t *testing.T, err error) []string {
	t.Helper()
	var ce *harden.ConfigError
	if !errors.As(err, &ce) {
		t.Errorf("got %v, want *harden.ConfigError", err)
		return nil
	}
	var fields []string
	for _, f := range ce.Fields {
		fields = append(fields, f.Field)
	}
	return fields
}

// TestValidate covers the cluster's rejections: its own fields, Base
// fields core.Config.Validate rejects (the same fields it reports for
// a single system), and Base settings the shared fabric cannot honor.
func TestValidate(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
		core  bool // core.Config.Validate rejects the Base alone, with the same fields
	}{
		{"no systems", func(c *Config) { c.Systems = nil }, "Systems", false},
		{"unknown bench", func(c *Config) { c.Systems[0].Bench = "nope" }, "Systems[0].Bench", false},
		{"bad link", func(c *Config) { c.LinkLatency = -sim.Nanosecond }, "LinkLatency", false},
		{"bad channels", func(c *Config) { c.Base.Channels = -1 }, "Channels", true},
		{"bad engine", func(c *Config) { c.Base.Engine = "quantum" }, "Engine", true},
		{"unknown bank timing", func(c *Config) { c.Base.BankTiming = "exotic" }, "BankTiming", true},
		{"unknown mapping", func(c *Config) { c.Base.Mapping = "nope" }, "Mapping", true},
		{"bad part", func(c *Config) { c.Base.Timing = dram.Timing{Name: "800-99"} }, "Timing", true},
		{"sched policy", func(c *Config) { c.Base.SchedPolicy = "frfcfs" }, "SchedPolicy", false},
		{"reorder window", func(c *Config) { c.Base.ReorderWindow = 4 }, "ReorderWindow", true},
		{"ganged", func(c *Config) { c.Base.Interleaving = "ganged" }, "Interleaving", false},
		{"counterfactual without prefetch", func(c *Config) {
			c.Base.Counterfactual, c.Obs.Trace = true, true
		}, "Counterfactual", false},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mut(&cfg)
		got := configFields(t, cfg.Validate())
		if !slices.Contains(got, tc.field) {
			t.Errorf("%s: rejected fields %v, want %s", tc.name, got, tc.field)
		}
		if tc.core {
			if want := configFields(t, cfg.Base.Validate()); !slices.Equal(got, want) {
				t.Errorf("%s: cluster rejects %v, core.Config.Validate %v", tc.name, got, want)
			}
		}
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run accepted the config", tc.name)
		}
	}
}

// TestCancellation verifies a canceled context stops the run with a
// classified error instead of spinning.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testConfig()
	if _, err := Run(ctx, cfg); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("got %v, want abort error", err)
	}
	cfg.Parallel = true
	if _, err := Run(ctx, cfg); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("parallel: got %v, want abort error", err)
	}
}

// TestSoloMatchesShare sanity-checks a single-system cluster: it gets
// the whole fabric (occupancy share 1) and still terminates.
func TestSoloMatchesShare(t *testing.T) {
	cfg := Config{
		Systems:   []SystemSpec{{Bench: "swim", Seed: 5}},
		Base:      baseChannels(1),
		MaxInstrs: 3_000,
	}
	res := mustRun(t, cfg)
	if got := res.Systems[0].OccupancyShare; got != 1 {
		t.Fatalf("solo occupancy share %v, want 1", got)
	}
	if res.Messages == 0 || res.Epochs == 0 {
		t.Fatalf("no fabric traffic recorded: %+v", res)
	}
}
