package cluster

import (
	"context"
	"fmt"
	"testing"
)

// benchConfig builds an n-system mix over the benchmark profiles.
func benchConfig(n int, parallel bool) Config {
	profiles := []string{"mcf", "swim", "facerec", "twolf"}
	cfg := Config{
		Base:      baseChannels(4),
		MaxInstrs: 20_000,
		Parallel:  parallel,
	}
	for i := 0; i < n; i++ {
		cfg.Systems = append(cfg.Systems, SystemSpec{
			Bench: profiles[i%len(profiles)],
			Seed:  uint64(i + 1),
		})
	}
	return cfg
}

// BenchmarkClusterSeq measures the sequential reference engine at
// 1/2/4/8 systems — the shard-scaling curve's single-threaded anchor.
func BenchmarkClusterSeq(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("systems=%d", n), func(b *testing.B) {
			cfg := benchConfig(n, false)
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterPar measures the parallel sharded engine at the
// same sizes; compare against BenchmarkClusterSeq for the wall-clock
// speedup (bounded by the host's core count).
func BenchmarkClusterPar(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("systems=%d", n), func(b *testing.B) {
			cfg := benchConfig(n, true)
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterBarrier isolates the epoch-barrier overhead: a
// 2-system cluster with a tiny instruction budget but a short link
// latency spends most of its wall time in epoch turnover, so ns/op
// here tracks the per-epoch fixed cost (sort, inject, handshake).
func BenchmarkClusterBarrier(b *testing.B) {
	cfg := Config{
		Systems: []SystemSpec{
			{Bench: "twolf", Seed: 1},
			{Bench: "gzip", Seed: 2},
		},
		Base:        baseChannels(1),
		MaxInstrs:   2_000,
		LinkLatency: DefaultLinkLatency / 4,
		Parallel:    true,
	}
	var epochs uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		epochs = res.Epochs
	}
	if epochs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*epochs), "ns/epoch")
	}
}
