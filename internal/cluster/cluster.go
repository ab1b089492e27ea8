// Package cluster simulates N CPU+cache systems — each a full
// internal/core system running its own workload — sharing a set of
// DRDRAM channels through a shared-clock event fabric. It is the
// multi-programmed regime the paper's single-system study points
// toward: demand misses, writebacks, and prefetches from different
// programs contending for the same scarce channel slots.
//
// Execution is sharded: every system owns a private scheduler, and the
// shared channels live on one memory shard with a multi-requester
// arbiter per channel (priority classes demand > writeback > prefetch,
// round-robin across systems within a class). Shards advance in
// bounded epochs of LinkLatency simulated time and exchange messages
// only at epoch barriers, in a canonical sort order, so the parallel
// engine is bit-identical to the sequential reference regardless of
// GOMAXPROCS. See DESIGN.md §15 for the protocol argument.
package cluster

import (
	"fmt"

	"memsim/internal/core"
	"memsim/internal/harden"
	"memsim/internal/obs"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// MaxSystems bounds a cluster's size: enough for every profile in the
// suite to co-run, small enough that misconfigured specs fail fast.
const MaxSystems = 64

// DefaultLinkLatency is the default system-to-fabric hop: epoch width
// Δ equals it, so it is also the granularity of cross-system
// interaction. 10ns approximates an on-board point-to-point link and
// keeps epochs coarse enough that barrier overhead stays small.
const DefaultLinkLatency = 10 * sim.Nanosecond

// skewBlocks offsets each system's physical address space within the
// shared fabric by this many 64-byte blocks (a prime, so systems with
// identical workloads still exercise different rows and banks, the
// same trick workload generation uses to de-correlate streams).
const skewBlocks = 1009

// SystemSpec describes one member system: which workload it runs.
// Every member shares the cluster's core configuration (Config.Base).
type SystemSpec struct {
	// Bench names the workload profile (workload.ByName).
	Bench string `json:"bench"`
	// Seed offsets the workload generator so co-running copies of one
	// profile do not replay identical streams.
	Seed uint64 `json:"seed"`
}

// Label names the system for metrics, traces, and reports.
func (s SystemSpec) Label(idx int) string { return fmt.Sprintf("sys%d-%s", idx, s.Bench) }

// Config describes a cluster run.
type Config struct {
	// Systems are the member systems; at least one.
	Systems []SystemSpec `json:"systems"`

	// Base is every member's core configuration and the shared
	// fabric's memory configuration: the fabric has Base.Channels
	// independent channels, each with its own arbiter, built as a
	// System builds its own. Nil means core.Base(); memberConfig says
	// what the cluster normalizes.
	Base *core.Config `json:"base,omitempty"`

	// LinkLatency is the system-to-fabric hop, and therefore the epoch
	// width Δ: a message sent at t delivers at t+Δ, which always lands
	// in a strictly later epoch. Zero means DefaultLinkLatency.
	LinkLatency sim.Time `json:"link_latency_ps,omitempty"`

	// MaxInstrs, when positive, overrides every system's measured
	// instruction budget (and WarmupInstrs overrides the warmup).
	MaxInstrs    uint64 `json:"max_instrs,omitempty"`
	WarmupInstrs uint64 `json:"warmup_instrs,omitempty"`

	// Parallel selects the sharded engine: one goroutine per shard
	// with epoch barriers. False runs the sequential reference engine
	// (identical protocol, shards stepped in canonical order on one
	// goroutine). Both produce bit-identical results.
	Parallel bool `json:"parallel,omitempty"`

	// Obs configures per-system observability (each system gets its
	// own registry/tracer; the cluster adds fabric-level series).
	Obs obs.Config `json:"-"`
}

// withDefaults returns the config with zero values resolved.
func (c Config) withDefaults() Config {
	if c.Base == nil {
		base := core.Base()
		c.Base = &base
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = DefaultLinkLatency
	}
	return c
}

// Validate checks the config with defaults resolved, reporting every
// problem as one *harden.ConfigError: the cluster's own fields, then
// the member configuration through core.Config.Validate, then the Base
// settings the shared fabric cannot honor.
func (c Config) Validate() error {
	c = c.withDefaults()
	var v harden.Validator
	v.Check(len(c.Systems) > 0, "Systems", 0, "no systems configured")
	v.Check(len(c.Systems) <= MaxSystems, "Systems", len(c.Systems), "exceeds MaxSystems=%d", MaxSystems)
	for i, s := range c.Systems {
		if _, err := workload.ByName(s.Bench); err != nil {
			v.Reject(fmt.Sprintf("Systems[%d].Bench", i), s.Bench, "%v", err)
		}
	}
	v.Check(c.LinkLatency > 0, "LinkLatency", c.LinkLatency, "must be positive")
	v.Merge("", c.memberConfig().Validate())
	// The fabric's arbiter has a fixed demand > writeback > prefetch
	// priority; a reorder_window without frfcfs-cap already fails above.
	v.Check(c.Base.SchedPolicy == "", "SchedPolicy", c.Base.SchedPolicy,
		"the shared fabric arbitrates by fixed class priority, not an issue policy")
	v.Check(c.Base.Interleaving == "" || c.Base.Interleaving == "independent", "Interleaving", c.Base.Interleaving,
		"the shared fabric stripes blocks across independent channels")
	v.Check(!c.Base.Counterfactual || c.Base.Prefetch.Enabled, "Counterfactual", c.Base.Counterfactual,
		"the shared fabric records no decisions; only member prefetchers can be traced")
	return v.Err()
}

// memberConfig derives every member's core configuration, which is
// also the fabric's memory configuration: Base with the cluster's
// budgets and observability, normalized rather than rejected where
// external memory restricts it — channels interleave independently,
// scheduled/bank-aware prefetching degrades to the unscheduled FIFO
// discipline (the fabric cannot expose synchronous channel idle or row
// state across shards), and hardening monitors are disabled (they
// inspect local controllers).
func (c Config) memberConfig() core.Config {
	cfg := *c.Base
	cfg.Interleaving = "independent"
	if c.MaxInstrs > 0 {
		cfg.MaxInstrs = c.MaxInstrs
		cfg.WarmupInstrs = c.WarmupInstrs
	}
	cfg.Prefetch.Scheduled = false
	cfg.Prefetch.BankAware = false
	cfg.Harden = core.HardenConfig{}
	cfg.Obs = c.Obs
	return cfg
}
