package core

import (
	"errors"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"memsim/internal/harden"
	"memsim/internal/policy"
	"memsim/internal/prefetch"
)

func TestKnobTable(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	seen := map[string]bool{}
	for _, k := range knobs {
		if !snake.MatchString(k.Name) || seen[k.Name] {
			t.Errorf("knob name %q is not unique snake_case", k.Name)
		}
		seen[k.Name] = true
		if k.Doc == "" {
			t.Errorf("knob %q has no doc", k.Name)
		}
	}
}

// TestKnobDocsListRegistries requires every registered scheme in its
// knob's doc, so a registry addition shows up in every -h.
func TestKnobDocsListRegistries(t *testing.T) {
	for name, names := range map[string][]string{
		"mapping":         policy.Mappings.Names(),
		"sched_policy":    policy.Sched.Names(),
		"bank_timing":     policy.Timings.Names(),
		"prefetch_scheme": policy.Prefetchers.Names(),
	} {
		k, _ := LookupKnob(name)
		for _, scheme := range names {
			if !strings.Contains(k.Doc, scheme) {
				t.Errorf("knob %s doc %q omits %s", name, k.Doc, scheme)
			}
		}
	}
}

// TestApplyAggregatesErrors requires every bad value and unknown name
// in one ConfigError: bad values in table order, then unknown names
// in sorted order, each under the knob name the caller used.
func TestApplyAggregatesErrors(t *testing.T) {
	cfg := Base()
	err := cfg.Apply(map[string]string{
		"zeta": "1", "part": "800-99", "channels": "four", "alpha": "1", "insert": "TOP",
	})
	var ce *harden.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("Apply = %v, want *harden.ConfigError", err)
	}
	var fields []string
	for _, f := range ce.Fields {
		fields = append(fields, f.Field)
	}
	if want := []string{"channels", "part", "insert", "alpha", "zeta"}; !reflect.DeepEqual(fields, want) {
		t.Fatalf("fields = %v, want %v", fields, want)
	}
}

func TestApplyDerivedValues(t *testing.T) {
	apply := func(base Config, settings map[string]string) Config {
		t.Helper()
		if err := base.Apply(settings); err != nil {
			t.Fatal(err)
		}
		return base
	}
	for size, want := range map[string]int64{"1048576": 1 << 20, "64KB": 64 << 10, "4mb": 4 << 20} {
		if got := apply(Base(), map[string]string{"l2_size_bytes": size}).L2Size; got != want {
			t.Errorf("l2_size_bytes=%s: %d, want %d", size, got, want)
		}
	}
	if c := apply(Base(), map[string]string{"channels": "2"}); c.DevicesPerChannel != 4 {
		t.Errorf("channels=2 kept %d devices per channel, want 4", c.DevicesPerChannel)
	}
	if c := apply(Tuned(), map[string]string{"prefetch": "false"}); c.Prefetch != (PrefetchConfig{}) {
		t.Errorf("prefetch=false left %+v", c.Prefetch)
	}
	if c := apply(Base(), map[string]string{"fifo": "true"}); !c.Prefetch.Enabled ||
		c.Prefetch.Policy != prefetch.FIFO || c.Prefetch.BankAware {
		t.Errorf("fifo=true: %+v", c.Prefetch)
	}
	if c := apply(Base(), map[string]string{"prefetch_scheme": "sequential"}); c.Prefetch.Lookahead != DefaultLookahead {
		t.Errorf("sequential scheme lookahead = %d, want %d", c.Prefetch.Lookahead, DefaultLookahead)
	}
	// The removed legacy encoding: a window alone no longer selects
	// frfcfs-cap, it fails validation.
	if err := apply(Base(), map[string]string{"reorder_window": "8"}).Validate(); err == nil {
		t.Error("reorder_window without sched_policy frfcfs-cap validated")
	}
}
