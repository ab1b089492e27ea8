package core

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"memsim/internal/cache"
	"memsim/internal/dram"
	"memsim/internal/harden"
	"memsim/internal/policy"
	"memsim/internal/prefetch"
)

// KnobKind is the type of value a knob takes: flags take every kind as
// text, memsimd's JSON a bool, a number, or for KindString a string.
type KnobKind int

// Knob kinds.
const (
	KindBool KnobKind = iota
	KindInt
	KindSize // a byte count: 65536, 64KB or 1MB
	KindFloat
	KindString
)

// Knob is one setting of the single configuration surface: a memsim
// and sweep flag, a sweep -param and a memsimd "config" key. Values one
// knob derives from another live only in the setters.
type Knob struct {
	Name, Doc string
	Kind      KnobKind
	set       func(c *Config, raw string) error
}

// DefaultLookahead is the sequential/stream prefetch depth in blocks
// when a scheme is chosen without one.
const DefaultLookahead = 4

// totalDevices is the base system's DRDRAM device count (4 channels of
// 2), which the channels knob keeps, as Figure 5's 8-channel system does.
const totalDevices = 8

// knobs is the table, in application order: channels precedes devices,
// reorder_window precedes sched_policy, and prefetch precedes its
// sub-knobs, so an explicit setting always wins over a derived one.
var knobs = []Knob{
	knob("ghz", "core clock in GHz", floatV, func(c *Config, v float64) { c.ClockHz = v * 1e9 }),
	knob("mapping", "address mapping: "+oneOf(policy.Mappings), stringV, func(c *Config, v string) { c.Mapping = v }),
	knob("channels", "physical Rambus channels; keeps 8 devices in total unless devices is set", intV,
		func(c *Config, v int) { c.Channels, c.DevicesPerChannel = v, max(1, totalDevices/max(v, 1)) }),
	knob("devices", "DRDRAM devices per channel", intV, func(c *Config, v int) { c.DevicesPerChannel = v }),
	knob("l2_size_bytes", "L2 capacity (e.g. 1MB, 4MB)", sizeV, func(c *Config, v int64) { c.L2Size = v }),
	knob("l2_block_bytes", "L2 block size in bytes", intV, func(c *Config, v int) { c.L2Block = v }),
	knob("mshrs", "outstanding L2 demand misses", intV, func(c *Config, v int) { c.MSHRs = v }),
	knob("part", "DRDRAM part: 800-40, 800-50 or 800-34", partV, func(c *Config, v dram.Timing) { c.Timing = v }),
	knob("closed_page", "close the row buffer after every access", boolV, func(c *Config, v bool) { c.ClosedPage = v }),
	knob("interleaving", "channel organization: ganged or independent", stringV, func(c *Config, v string) { c.Interleaving = v }),
	knob("refresh", "model DRAM refresh", boolV, func(c *Config, v bool) { c.Refresh = v }),
	knob("engine", "event scheduler: calendar or heap", stringV, func(c *Config, v string) { c.Engine = v }),
	knob("reorder_window", "frfcfs-cap scan window (only with sched_policy frfcfs-cap)", intV, func(c *Config, v int) { c.ReorderWindow = v }),
	knob("sched_policy", "issue policy: "+oneOf(policy.Sched)+" (frfcfs-cap window "+strconv.Itoa(policy.DefaultReorderWindow)+
		" unless reorder_window is set)", stringV, func(c *Config, v string) {
		c.SchedPolicy = v
		if v == "frfcfs-cap" && c.ReorderWindow == 0 {
			c.ReorderWindow = policy.DefaultReorderWindow
		}
	}),
	knob("bank_timing", "bank timing scheme: "+oneOf(policy.Timings), stringV, func(c *Config, v string) { c.BankTiming = v }),
	knob("counterfactual", "trace what each alternative policy would decide (needs a trace)", boolV, func(c *Config, v bool) { c.Counterfactual = v }),
	knob("prefetch", "tuned scheduled region prefetching; false turns prefetching off", boolV, func(c *Config, v bool) {
		c.Prefetch = PrefetchConfig{}
		if v {
			c.Prefetch = TunedPrefetch()
		}
	}),
	// Every knob below turns on the tuned prefetcher first, as its doc says.
	knob("prefetch_scheme", "prefetch scheme: "+oneOf(policy.Prefetchers)+"; turns prefetching on", stringV, func(c *Config, v string) {
		tunedPrefetchOn(c)
		c.Prefetch.Scheme = v
		if (v == "sequential" || v == "stream") && c.Prefetch.Lookahead == 0 {
			c.Prefetch.Lookahead = DefaultLookahead
		}
	}),
	knob("region", "prefetch region bytes; turns prefetching on", intV, func(c *Config, v int) { tunedPrefetchOn(c); c.Prefetch.RegionBytes = v }),
	knob("lookahead", "stream/sequential depth in blocks; turns prefetching on", intV, func(c *Config, v int) { tunedPrefetchOn(c); c.Prefetch.Lookahead = v }),
	knob("insert", "L2 insertion priority of prefetched blocks: MRU, SMRU, SLRU or LRU; turns prefetching on", insertV,
		func(c *Config, v cache.InsertPos) { tunedPrefetchOn(c); c.Prefetch.Insert = v }),
	knob("fifo", "FIFO region prioritization instead of bank-aware LIFO; turns prefetching on", boolV, func(c *Config, v bool) {
		tunedPrefetchOn(c)
		c.Prefetch.Policy, c.Prefetch.BankAware = prefetch.LIFO, true
		if v {
			c.Prefetch.Policy, c.Prefetch.BankAware = prefetch.FIFO, false
		}
	}),
	knob("unscheduled", "prefetch as ordinary requests (Table 4); turns prefetching on", boolV, func(c *Config, v bool) { tunedPrefetchOn(c); c.Prefetch.Scheduled = !v }),
	knob("software_prefetch", "execute software prefetch instructions", boolV, func(c *Config, v bool) { c.SoftwarePrefetch = v }),
	knob("perfect_l2", "make every L2 access hit", boolV, func(c *Config, v bool) { c.PerfectL2 = v }),
	knob("perfect_mem", "make every L1 access hit", boolV, func(c *Config, v bool) { c.PerfectMem = v }),
}

// oneOf lists a registry's scheme names for a knob doc: "a, b or c".
func oneOf[T any](r *policy.Registry[T]) string {
	names := r.Names()
	if len(names) < 2 {
		return strings.Join(names, "")
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

func tunedPrefetchOn(c *Config) {
	if !c.Prefetch.Enabled {
		c.Prefetch = TunedPrefetch()
	}
}

// parser reads one knob value type from its text form.
type parser[T any] struct {
	kind  KnobKind
	want  string // what a bad value is told it must be
	parse func(string) (T, error)
}

var (
	boolV   = parser[bool]{KindBool, "true or false", strconv.ParseBool}
	intV    = parser[int]{KindInt, "an integer", strconv.Atoi}
	sizeV   = parser[int64]{KindSize, "a byte count such as 65536, 64KB or 1MB", parseSize}
	floatV  = parser[float64]{KindFloat, "a number", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }}
	stringV = parser[string]{KindString, "", func(s string) (string, error) { return s, nil }}
	partV   = parser[dram.Timing]{KindString, "one of 800-40, 800-50 or 800-34", dram.PartByName}
	insertV = parser[cache.InsertPos]{KindString, "one of MRU, SMRU, SLRU or LRU", func(s string) (cache.InsertPos, error) {
		if i := slices.IndexFunc(cache.Positions, func(p cache.InsertPos) bool { return strings.EqualFold(s, p.String()) }); i >= 0 {
			return cache.Positions[i], nil
		}
		return 0, strconv.ErrSyntax
	}}
)

func knob[T any](name, doc string, p parser[T], set func(*Config, T)) Knob {
	return Knob{name, doc, p.kind, func(c *Config, raw string) error {
		v, err := p.parse(raw)
		if err != nil {
			return fmt.Errorf("must be %s", p.want)
		}
		set(c, v)
		return nil
	}}
}

// parseSize reads "1048576", "64KB" or "1MB".
func parseSize(s string) (int64, error) {
	shift := 0
	if n, ok := strings.CutSuffix(strings.ToUpper(s), "KB"); ok {
		s, shift = n, 10
	} else if n, ok := strings.CutSuffix(strings.ToUpper(s), "MB"); ok {
		s, shift = n, 20
	}
	n, err := strconv.ParseInt(s, 10, 64-shift) // bit size bounds n<<shift
	return n << shift, err
}

// LookupKnob finds a knob by name.
func LookupKnob(name string) (Knob, bool) {
	for _, k := range knobs {
		if k.Name == name {
			return k, true
		}
	}
	return Knob{}, false
}

// Apply sets knobs from their text values in table order, whatever
// order they were given, so every front-end derives the same Config.
// It reports every unknown name and bad value in one
// *harden.ConfigError under the knob's name (leaving the Config partly
// applied); consistency is Validate's job.
func (c *Config) Apply(settings map[string]string) error {
	var v harden.Validator
	for _, k := range knobs {
		if raw, ok := settings[k.Name]; ok {
			if err := k.set(c, raw); err != nil {
				v.Reject(k.Name, raw, "%v", err)
			}
		}
	}
	names := make([]string, 0, len(settings))
	for name := range settings {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if _, ok := LookupKnob(name); !ok {
			v.Reject(name, settings[name], "unknown setting")
		}
	}
	return v.Err()
}

// KnobFlags registers one flag per knob on fs and returns the map the
// flags record their values into, ready for Apply; a flag not given
// leaves the preset's value alone.
func KnobFlags(fs *flag.FlagSet) map[string]string {
	settings := map[string]string{}
	for _, k := range knobs {
		record := func(s string) error { settings[k.Name] = s; return nil }
		if k.Kind == KindBool {
			fs.BoolFunc(k.Name, k.Doc, record)
		} else {
			fs.Func(k.Name, k.Doc, record)
		}
	}
	return settings
}
