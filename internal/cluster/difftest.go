package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"memsim/internal/core"
	"memsim/internal/sim"
)

// This file is the cluster differential mode of the PR 5 difftest
// harness: seeded random cluster programs executed by both engines —
// the sequential single-goroutine reference and the parallel sharded
// engine — and compared bit for bit (canonical JSON of the merged
// Result, which embeds the fire-log digest). A divergence is shrunk
// with the same greedy ddmin discipline internal/sim/difftest uses,
// over the knobs a cluster config has: member systems, instruction
// budget, channel count, and link latency.

// diffProfiles are the workloads random programs draw from: a spread
// of memory intensities so programs mix bandwidth hogs with cache-
// resident code.
var diffProfiles = []string{"mcf", "swim", "facerec", "twolf", "gzip", "art"}

// GenProgram derives a random cluster program from seed: 1–4 systems,
// a few hundred to a couple thousand instructions each, 1–4 channels,
// and a link latency between 4 and 32 ns. Prefetching and closed-page
// policy toggle per program so the differential surface covers the
// fabric's class priorities.
func GenProgram(seed uint64) Config {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := 1 + rng.Intn(4)
	base := core.Base()
	base.Channels = 1 << rng.Intn(3)
	base.DevicesPerChannel = 1 << rng.Intn(2)
	cfg := Config{
		Base:         &base,
		LinkLatency:  sim.Time(4<<rng.Intn(4)) * sim.Nanosecond,
		MaxInstrs:    uint64(300 + rng.Intn(1200)),
		WarmupInstrs: uint64(rng.Intn(200)),
	}
	base.ClosedPage = rng.Intn(4) == 0
	for i := 0; i < n; i++ {
		spec := SystemSpec{
			Bench: diffProfiles[rng.Intn(len(diffProfiles))],
			Seed:  uint64(rng.Intn(1 << 16)),
		}
		cfg.Systems = append(cfg.Systems, spec)
	}
	return cfg
}

// runCanonical executes cfg with the given engine selection and
// returns the merged Result's canonical bytes (the Result carries no
// wall-clock state, so equal bytes mean bit-identical simulations).
func runCanonical(cfg Config, parallel bool) (string, error) {
	cfg.Parallel = parallel
	res, err := Run(context.Background(), cfg)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// diverges reports a non-empty description when the two engines
// disagree on cfg (or either errors asymmetrically).
func diverges(cfg Config) string {
	seq, errS := runCanonical(cfg, false)
	par, errP := runCanonical(cfg, true)
	switch {
	case errS != nil && errP != nil:
		if errS.Error() != errP.Error() {
			return fmt.Sprintf("errors differ: seq %v vs par %v", errS, errP)
		}
		return ""
	case errS != nil:
		return fmt.Sprintf("only sequential errs: %v", errS)
	case errP != nil:
		return fmt.Sprintf("only parallel errs: %v", errP)
	case seq != par:
		return describeDiff(seq, par)
	}
	return ""
}

// describeDiff locates the first differing byte for the report.
func describeDiff(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Sprintf("results diverge at byte %d: ...%s vs ...%s",
		i, a[lo:min(len(a), i+40)], b[lo:min(len(b), i+40)])
}

// Check runs the program under both engines and returns "" on
// agreement, or a report carrying the divergence and a ddmin-shrunk
// minimal configuration.
func Check(seed uint64) string {
	cfg := GenProgram(seed)
	d := diverges(cfg)
	if d == "" {
		return ""
	}
	m := Minimize(cfg)
	var b strings.Builder
	fmt.Fprintf(&b, "cluster engines diverged (seed %d): %s\n", seed, d)
	mb, _ := json.Marshal(m)
	fmt.Fprintf(&b, "minimal reproducer (%d of %d systems, %d instrs): %s",
		len(m.Systems), len(cfg.Systems), m.MaxInstrs, mb)
	return b.String()
}

// Minimize shrinks a diverging cluster config while the divergence
// persists: ddmin over the system list, then greedy halving of the
// instruction budget, channels, and link latency. If cfg does not
// diverge it is returned unchanged.
func Minimize(cfg Config) Config {
	if diverges(cfg) == "" {
		return cfg
	}
	// ddmin over the member systems.
	for chunk := (len(cfg.Systems) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(cfg.Systems) && len(cfg.Systems) > chunk; {
			trial := cfg
			trial.Systems = append(append([]SystemSpec{}, cfg.Systems[:i]...), cfg.Systems[i+chunk:]...)
			if diverges(trial) != "" {
				cfg = trial
			} else {
				i += chunk
			}
		}
	}
	// Greedy scalar shrinks, each kept only while still diverging.
	shrink := func(apply func(*Config) bool) {
		for {
			trial := cfg
			if !apply(&trial) || diverges(trial) == "" {
				return
			}
			cfg = trial
		}
	}
	shrink(func(c *Config) bool {
		if c.MaxInstrs <= 50 {
			return false
		}
		c.MaxInstrs /= 2
		c.WarmupInstrs /= 2
		return true
	})
	shrink(func(c *Config) bool {
		if c.Base.Channels <= 1 {
			return false
		}
		base := *c.Base // trials must not share the Base they shrink
		base.Channels /= 2
		c.Base = &base
		return true
	})
	shrink(func(c *Config) bool {
		if c.LinkLatency <= DefaultLinkLatency/2 {
			return false
		}
		c.LinkLatency /= 2
		return true
	})
	return cfg
}
