package server

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"memsim/internal/core"
	"memsim/internal/harden"
)

// The three configuration front-ends, reduced to their knob handling.
// cmd/memsim registers core.KnobFlags, parses its arguments and
// applies the result to the base system; cmd/sweep does the same and
// then sets its -param knob per point; memsimd decodes the "config"
// object of a job body and builds it with JobSpec.BuildConfig. Each
// returns the validated Config, or the error's ConfigError fields.

func memsimFrontEnd(args ...string) (core.Config, []string) {
	fs := flag.NewFlagSet("memsim", flag.ContinueOnError)
	knobs := core.KnobFlags(fs)
	if err := fs.Parse(args); err != nil {
		return core.Config{}, []string{"flag: " + err.Error()}
	}
	return applyAndValidate(knobs)
}

func sweepFrontEnd(param, value string, args ...string) (core.Config, []string) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	knobs := core.KnobFlags(fs)
	if err := fs.Parse(args); err != nil {
		return core.Config{}, []string{"flag: " + err.Error()}
	}
	knobs[param] = value
	return applyAndValidate(knobs)
}

func applyAndValidate(knobs map[string]string) (core.Config, []string) {
	cfg := core.Base()
	err := cfg.Apply(knobs)
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return core.Config{}, configFields(err)
	}
	return cfg, nil
}

func memsimdFrontEnd(t *testing.T, config string) (core.Config, []string) {
	t.Helper()
	spec, _, aerr := decodeSpec(strings.NewReader(`{"config":` + config + `}`))
	if aerr != nil {
		return core.Config{}, []string{aerr.Code}
	}
	cfg, err := spec.BuildConfig()
	if err != nil {
		return core.Config{}, configFields(err)
	}
	return cfg, nil
}

func configFields(err error) []string {
	var ce *harden.ConfigError
	if !errors.As(err, &ce) {
		return []string{"untyped: " + err.Error()}
	}
	var fields []string
	for _, f := range ce.Fields {
		fields = append(fields, f.Field)
	}
	return fields
}

// jsonValue renders a flag-syntax knob value as memsimd's JSON value.
func jsonValue(k core.Knob, v string) string {
	if k.Kind == core.KindString {
		return strconv.Quote(v)
	}
	return v
}

// TestFrontEndsAgree is the round trip over the whole knob table: for
// every knob, the memsim flag, the sweep -param and the memsimd JSON
// key build the identical Config, or fail with the identical
// ConfigError fields.
func TestFrontEndsAgree(t *testing.T) {
	// One non-default value per knob; with holds other knobs the
	// sample needs in order to validate.
	samples := map[string]struct {
		value string
		with  map[string]string
	}{
		"ghz":               {value: "2"},
		"mapping":           {value: "xor"},
		"channels":          {value: "2"},
		"devices":           {value: "4"},
		"l2_size_bytes":     {value: "2097152"},
		"l2_block_bytes":    {value: "128"},
		"mshrs":             {value: "16"},
		"part":              {value: "800-50"},
		"closed_page":       {value: "true"},
		"interleaving":      {value: "independent"},
		"refresh":           {value: "true"},
		"engine":            {value: "heap"},
		"reorder_window":    {value: "16", with: map[string]string{"sched_policy": "frfcfs-cap"}},
		"sched_policy":      {value: "frfcfs"},
		"bank_timing":       {value: "tiered"},
		"counterfactual":    {value: "true"}, // rejected: no front-end here arms a trace
		"prefetch":          {value: "true"},
		"prefetch_scheme":   {value: "stream"},
		"region":            {value: "2048"},
		"lookahead":         {value: "6"},
		"insert":            {value: "MRU"},
		"fifo":              {value: "true"},
		"unscheduled":       {value: "true"},
		"software_prefetch": {value: "true"},
		"perfect_l2":        {value: "true"},
		"perfect_mem":       {value: "true"},
	}
	// The knob table, enumerated through the flags a front-end gets.
	var names []string
	flagSet := flag.NewFlagSet("knobs", flag.ContinueOnError)
	core.KnobFlags(flagSet)
	flagSet.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	for _, name := range names {
		k, _ := core.LookupKnob(name)
		t.Run(k.Name, func(t *testing.T) {
			s, ok := samples[k.Name]
			if !ok {
				t.Fatalf("knob %q has no sample value in this test", k.Name)
			}
			var withArgs, withJSON []string
			for name, v := range s.with {
				wk, _ := core.LookupKnob(name)
				withArgs = append(withArgs, "-"+name+"="+v)
				withJSON = append(withJSON, strconv.Quote(name)+":"+jsonValue(wk, v))
			}
			body := "{" + strings.Join(append(withJSON, strconv.Quote(k.Name)+":"+jsonValue(k, s.value)), ",") + "}"

			mcfg, merr := memsimFrontEnd(append(withArgs, "-"+k.Name+"="+s.value)...)
			scfg, serr := sweepFrontEnd(k.Name, s.value, withArgs...)
			dcfg, derr := memsimdFrontEnd(t, body)
			if !reflect.DeepEqual(merr, serr) || !reflect.DeepEqual(merr, derr) {
				t.Fatalf("errors differ: memsim %v, sweep %v, memsimd %v", merr, serr, derr)
			}
			if mcfg != scfg || mcfg != dcfg {
				t.Fatalf("configs differ:\nmemsim  %+v\nsweep   %+v\nmemsimd %+v", mcfg, scfg, dcfg)
			}
			if merr == nil && mcfg == core.Base() {
				t.Fatalf("sample %s=%s left the base config unchanged", k.Name, s.value)
			}
		})
	}
	if len(samples) != len(names) {
		t.Errorf("%d samples for %d knobs: drop the samples of removed knobs", len(samples), len(names))
	}
}

// TestFrontEndsFormerDisagreements pins the cases the three
// hand-written mappings used to resolve differently.
func TestFrontEndsFormerDisagreements(t *testing.T) {
	cases := []struct {
		name   string
		memsim []string
		param  string // sweep -param, the last memsim flag
		value  string
		json   string
		check  func(core.Config) bool
	}{
		{
			// memsimd used to build 8 channels x 2 devices.
			name:   "channels keeps 8 devices",
			memsim: []string{"-channels", "8"},
			param:  "channels", value: "8",
			json:  `{"channels":8}`,
			check: func(c core.Config) bool { return c.Channels == 8 && c.DevicesPerChannel == 1 },
		},
		{
			// memsim used to set Lookahead 8, memsimd 4.
			name:   "stream lookahead",
			memsim: []string{"-prefetch", "-prefetch_scheme", "stream"},
			param:  "prefetch_scheme", value: "stream",
			json: `{"prefetch":true,"prefetch_scheme":"stream"}`,
			check: func(c core.Config) bool {
				return c.Prefetch.Enabled && c.Prefetch.Scheme == "stream" && c.Prefetch.Lookahead == core.DefaultLookahead
			},
		},
		{
			// memsim used to exit 1 ("needs ReorderWindow >= 2").
			name:   "frfcfs-cap alone",
			memsim: []string{"-sched_policy", "frfcfs-cap"},
			param:  "sched_policy", value: "frfcfs-cap",
			json:  `{"sched_policy":"frfcfs-cap"}`,
			check: func(c core.Config) bool { return c.SchedPolicy == "frfcfs-cap" && c.ReorderWindow == 8 },
		},
		{
			// memsim used to ignore a scheme without -prefetch.
			name:   "scheme without prefetch",
			memsim: []string{"-prefetch_scheme", "stream"},
			param:  "prefetch_scheme", value: "stream",
			json:  `{"prefetch_scheme":"stream"}`,
			check: func(c core.Config) bool { return c.Prefetch.Enabled && c.Prefetch.Scheme == "stream" },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mcfg, merr := memsimFrontEnd(tc.memsim...)
			// Every case ends with the swept flag and its value.
			sweepArgs := tc.memsim[:len(tc.memsim)-2]
			scfg, serr := sweepFrontEnd(tc.param, tc.value, sweepArgs...)
			dcfg, derr := memsimdFrontEnd(t, tc.json)
			if merr != nil || serr != nil || derr != nil {
				t.Fatalf("rejected: memsim %v, sweep %v, memsimd %v", merr, serr, derr)
			}
			if mcfg != scfg || mcfg != dcfg {
				t.Fatalf("configs differ:\nmemsim  %+v\nsweep   %+v\nmemsimd %+v", mcfg, scfg, dcfg)
			}
			if !tc.check(mcfg) {
				t.Fatalf("unexpected config %+v", mcfg)
			}
		})
	}
}

// TestFlagOrderIrrelevant pins table-order application: swapping the
// flags that derive one another builds the same Config.
func TestFlagOrderIrrelevant(t *testing.T) {
	for _, pair := range [][2][]string{
		{{"-channels", "8", "-devices", "2"}, {"-devices", "2", "-channels", "8"}},
		{{"-prefetch_scheme", "stream", "-lookahead", "6"}, {"-lookahead", "6", "-prefetch_scheme", "stream"}},
		{{"-sched_policy", "frfcfs-cap", "-reorder_window", "16"}, {"-reorder_window", "16", "-sched_policy", "frfcfs-cap"}},
		{{"-region", "2048", "-prefetch"}, {"-prefetch", "-region", "2048"}},
	} {
		a, aerr := memsimFrontEnd(pair[0]...)
		b, berr := memsimFrontEnd(pair[1]...)
		if aerr != nil || berr != nil {
			t.Fatalf("%v: rejected: %v / %v", pair, aerr, berr)
		}
		if a != b {
			t.Fatalf("%v: order changed the config:\n%+v\n%+v", pair, a, b)
		}
	}
	if c, _ := memsimFrontEnd("-devices", "2", "-channels", "8"); c.DevicesPerChannel != 2 {
		t.Fatalf("explicit devices lost to the derived count: %d", c.DevicesPerChannel)
	}
	if c, _ := memsimFrontEnd("-lookahead", "6", "-prefetch_scheme", "stream"); c.Prefetch.Lookahead != 6 {
		t.Fatalf("explicit lookahead lost to the scheme default: %d", c.Prefetch.Lookahead)
	}
}

// TestFrontEndsRejectAlike requires an invalid value to fail in all
// three front-ends with the same ConfigError field, and memsimd to
// answer it over HTTP with those fields.
func TestFrontEndsRejectAlike(t *testing.T) {
	svc := newService(t, Config{Workers: 1, RatePerSec: -1, runHook: instantHook})
	for _, tc := range []struct{ name, value, field string }{
		{"channels", "3", "Channels"},
		{"part", "800-99", "part"},
		{"sched_policy", "exotic", "SchedPolicy"},
		{"reorder_window", "8", "ReorderWindow"}, // the removed legacy encoding
		{"counterfactual", "true", "Counterfactual"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, _ := core.LookupKnob(tc.name)
			body := `{` + strconv.Quote(tc.name) + `:` + jsonValue(k, tc.value) + `}`
			_, merr := memsimFrontEnd("-" + tc.name + "=" + tc.value)
			_, serr := sweepFrontEnd(tc.name, tc.value)
			_, derr := memsimdFrontEnd(t, body)
			want := []string{tc.field}
			if !reflect.DeepEqual(merr, want) || !reflect.DeepEqual(serr, want) || !reflect.DeepEqual(derr, want) {
				t.Fatalf("fields: memsim %v, sweep %v, memsimd %v; want %v", merr, serr, derr, want)
			}
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(`{"config":`+body+`}`)))
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("non-JSON error body: %q", rec.Body)
			}
			if rec.Code != 422 || eb.Error.Code != codeInvalidConfig || !reflect.DeepEqual(eb.Error.Fields, want) {
				t.Fatalf("HTTP %d %+v, want 422 %s %v", rec.Code, eb.Error, codeInvalidConfig, want)
			}
		})
	}
}

// TestParentJobRecordReadopts loads a jobs.json written before the knob
// table, with all fourteen config keys memsimd accepted then, and
// requires the restarted daemon to re-adopt the job and build the same
// Config the old BuildConfig built. The one documented difference:
// "channels" now keeps 8 devices in total, where it used to keep the
// preset's 2 devices per channel.
func TestParentJobRecordReadopts(t *testing.T) {
	dir := t.TempDir()
	const record = `{
  "version": 1,
  "next_seq": 1,
  "jobs": {
    "j000001": {
      "id": "j000001",
      "seq": 1,
      "state": "running",
      "spec": {
        "benchmarks": ["gcc"],
        "instrs": 20000,
        "config": {
          "mapping": "swap",
          "interleaving": "independent",
          "channels": 2,
          "closed_page": true,
          "refresh": true,
          "reorder_window": 16,
          "sched_policy": "frfcfs-cap",
          "bank_timing": "tiered",
          "engine": "heap",
          "prefetch": true,
          "prefetch_scheme": "stream",
          "software_prefetch": true,
          "l2_size_bytes": 2097152,
          "l2_block_bytes": 128
        }
      },
      "benchmarks": ["gcc"],
      "enqueued_at": "2026-01-01T00:00:00Z",
      "started_at": "2026-01-01T00:00:01Z"
    }
  }
}`
	if err := os.WriteFile(filepath.Join(dir, "jobs.json"), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}

	// What the parent's BuildConfig produced for this record.
	want := core.Base()
	want.Mapping = "swap"
	want.Interleaving = "independent"
	want.Channels = 2
	want.ClosedPage = true
	want.Refresh = true
	want.ReorderWindow = 16
	want.SchedPolicy = "frfcfs-cap"
	want.BankTiming = "tiered"
	want.Engine = "heap"
	want.Prefetch = core.TunedPrefetch()
	want.Prefetch.Scheme = "stream"
	want.Prefetch.Lookahead = 4
	want.SoftwarePrefetch = true
	want.L2Size = 2 << 20
	want.L2Block = 128
	want.DevicesPerChannel = 4 // was 2: channels now keeps 8 devices in total

	built := make(chan core.Config, 1)
	svc := newService(t, Config{Workers: 1, StateDir: dir, runHook: func(ctx context.Context, job Job) ([]core.Result, uint64, error) {
		cfg, err := job.Spec.BuildConfig()
		if err != nil {
			return nil, 0, err
		}
		built <- cfg
		return []core.Result{{IPC: 1}}, 0, nil
	}})
	done := waitState(t, svc, "j000001", StateDone, 10*time.Second)
	if done.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", done.Resumes)
	}
	if got := <-built; got != want {
		t.Fatalf("re-adopted job built\n%+v\nwant\n%+v", got, want)
	}
}
