package core

import (
	"testing"

	"memsim/internal/sim"
	"memsim/internal/trace"
)

// TestWaiterMergedDuringCriticalWordIsReleased pins the MSHR waiter
// ownership rule. A demand miss's critical word releases the loads
// merged so far; completing one of them can issue a load to another
// L1 block of the same L2 block, which merges into the same MSHR
// entry while its waiters are firing. That late waiter must be
// released exactly once, by the full-block fill.
func TestWaiterMergedDuringCriticalWordIsReleased(t *testing.T) {
	cfg := Base()
	cfg.L1Block = 32 // two L1 blocks per 64-byte L2 block
	cfg.Channels = 1 // a block takes several data packets: first data < fill
	sys, err := New(cfg, trace.NewSlice(nil))
	if err != nil {
		t.Fatal(err)
	}
	h := (*hierarchy)(sys)

	const first, second = 0x10000, 0x10020 // same L2 block, different L1 blocks
	var firstAt, secondAt []sim.Time
	onSecond := func(at sim.Time, _ any) { secondAt = append(secondAt, at) }
	onFirst := func(at sim.Time, _ any) {
		firstAt = append(firstAt, at)
		if rep := h.Access(second, trace.Load, onSecond, nil); !rep.Accepted || rep.Done {
			t.Errorf("second access = %+v, want accepted and merged into the pending miss", rep)
		}
		if m, ok := sys.mshrs.Lookup(first); !ok || len(m.Waiters) != 1 {
			t.Errorf("second access did not merge into the MSHR entry being released")
		}
	}
	if rep := h.Access(first, trace.Load, onFirst, nil); !rep.Accepted || rep.Done {
		t.Fatalf("first access = %+v, want an accepted miss", rep)
	}
	sys.sched.RunWhile(func() bool { return true })

	if len(firstAt) != 1 {
		t.Fatalf("first load completed %d times, want 1", len(firstAt))
	}
	if len(secondAt) != 1 {
		t.Fatalf("merged load completed %d times, want 1 (released at the fill)", len(secondAt))
	}
	if secondAt[0] <= firstAt[0] {
		t.Errorf("merged load completed at %v, not after the critical word at %v", secondAt[0], firstAt[0])
	}
	if sys.mshrs.Len() != 0 {
		t.Errorf("%d MSHR entries outstanding after the fill", sys.mshrs.Len())
	}
	if !sys.l1.Contains(second) || !sys.l2.Contains(first) {
		t.Error("fill did not install the merged L1 block and the L2 block")
	}
}
