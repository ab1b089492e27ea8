package core

import (
	"testing"

	"memsim/internal/workload"
)

// allocWarmup is the warm-up before the measured window of the
// allocation guard: long enough that every pool (ROB, MSHR entries,
// transfer records, prefetch regions, maps) has reached its working
// size before the shorter budget ends.
const allocWarmup = 100_000

// runAllocs counts the heap allocations of one whole run (setup
// included) of bench on the tuned system with instrs measured
// instructions.
func runAllocs(t *testing.T, bench string, instrs uint64) float64 {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Tuned()
	cfg.WarmupInstrs = allocWarmup
	cfg.MaxInstrs = instrs
	var runErr error
	n := testing.AllocsPerRun(1, func() {
		gen, err := p.Generator(1, cfg.SoftwarePrefetch)
		if err != nil {
			runErr = err
			return
		}
		sys, err := New(cfg, gen)
		if err != nil {
			runErr = err
			return
		}
		_, runErr = sys.Run()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return n
}

// TestSteadyStateAllocationFree guards the allocation-free hot path:
// two runs that differ only in their measured budget must allocate
// the same, up to 0.01 allocations per extra instruction, so the
// per-instruction path (ROB slots, miss records, waiters, completion
// events, prefetch regions) allocates nothing once its pools are warm.
// mcf drives the demand-miss path and swim the prefetch-issue path.
func TestSteadyStateAllocationFree(t *testing.T) {
	const short, long = 200_000, 400_000
	for _, bench := range []string{"mcf", "swim"} {
		t.Run(bench, func(t *testing.T) {
			a, b := runAllocs(t, bench, short), runAllocs(t, bench, long)
			perInstr := (b - a) / (long - short)
			t.Logf("%s: %.0f allocs at %d instrs, %.0f at %d: %.4f per extra instruction", bench, a, short, b, long, perInstr)
			if perInstr > 0.01 {
				t.Errorf("%s: %.4f allocations per steady-state instruction, want <= 0.01", bench, perInstr)
			}
		})
	}
}
