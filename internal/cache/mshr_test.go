package cache

import (
	"testing"

	"memsim/internal/sim"
)

// fire releases a waiter by invoking its completion.
func fire(w Waiter, at sim.Time) { w.Done(at, w.Arg) }

func TestMSHRAllocateLookupComplete(t *testing.T) {
	tb := NewMSHRTable(8, fire)
	if tb.Capacity() != 8 || tb.Len() != 0 || tb.Full() {
		t.Fatal("fresh table state wrong")
	}
	m := tb.Allocate(0x40, false)
	if m.Block != 0x40 || m.PrefetchOnly {
		t.Fatalf("entry = %+v", m)
	}
	got, ok := tb.Lookup(0x40)
	if !ok || got != m {
		t.Fatal("Lookup did not find allocated entry")
	}
	var fillAt sim.Time
	m.Waiters = append(m.Waiters, Waiter{Done: func(at sim.Time, arg any) { *arg.(*sim.Time) = at }, Arg: &fillAt})
	tb.Complete(0x40, 123*sim.Nanosecond)
	if fillAt != 123*sim.Nanosecond {
		t.Fatalf("waiter fired with %v, want 123ns", fillAt)
	}
	if _, ok := tb.Lookup(0x40); ok {
		t.Fatal("entry present after Complete")
	}
}

func TestMSHRMergeSemantics(t *testing.T) {
	tb := NewMSHRTable(2, fire)
	m := tb.Allocate(0x80, true)
	if !m.PrefetchOnly {
		t.Fatal("prefetch allocation not marked")
	}
	// A demand miss merging into the prefetch clears PrefetchOnly.
	m.PrefetchOnly = false
	n := 0
	count := func(sim.Time, any) { n++ }
	m.Waiters = append(m.Waiters, Waiter{Done: count}, Waiter{Done: count})
	tb.Complete(0x80, 0)
	if n != 2 {
		t.Fatalf("waiters fired %d times, want 2", n)
	}
}

func TestMSHRFull(t *testing.T) {
	tb := NewMSHRTable(2, fire)
	tb.Allocate(0x40, false)
	tb.Allocate(0x80, false)
	if !tb.Full() {
		t.Fatal("table not full at capacity")
	}
	if tb.HighWater != 2 {
		t.Fatalf("HighWater = %d, want 2", tb.HighWater)
	}
	tb.Complete(0x40, 0)
	if tb.Full() {
		t.Fatal("table full after Complete")
	}
}

func TestMSHRAllocateFullPanics(t *testing.T) {
	tb := NewMSHRTable(1, fire)
	tb.Allocate(0x40, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Allocate on full table did not panic")
		}
	}()
	tb.Allocate(0x80, false)
}

func TestMSHRDuplicatePanics(t *testing.T) {
	tb := NewMSHRTable(4, fire)
	tb.Allocate(0x40, false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Allocate did not panic")
		}
	}()
	tb.Allocate(0x40, false)
}

func TestMSHRCompleteUnknownPanics(t *testing.T) {
	tb := NewMSHRTable(4, fire)
	defer func() {
		if recover() == nil {
			t.Fatal("Complete of unknown block did not panic")
		}
	}()
	tb.Complete(0x40, 0)
}

func TestMSHRZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMSHRTable(0) did not panic")
		}
	}()
	NewMSHRTable(0, fire)
}

// TestMSHRRecycledEntryStartsEmpty checks that Complete recycles the
// entry: the next Allocate reuses it with no waiters left over and
// the new block and flag.
func TestMSHRRecycledEntryStartsEmpty(t *testing.T) {
	tb := NewMSHRTable(1, fire)
	m := tb.Allocate(0x40, true)
	m.Waiters = append(m.Waiters, Waiter{Addr: 0x40, Done: func(sim.Time, any) {}})
	tb.Complete(0x40, 0)
	r := tb.Allocate(0x80, false)
	if r != m {
		t.Fatal("Allocate after Complete did not reuse the freed entry")
	}
	if r.Block != 0x80 || r.PrefetchOnly || len(r.Waiters) != 0 {
		t.Fatalf("recycled entry = %+v, want block 0x80, demand, no waiters", r)
	}
}

// TestMSHRReleaseMayAllocate checks that a waiter's release can
// allocate a new entry without disturbing the entry being completed.
func TestMSHRReleaseMayAllocate(t *testing.T) {
	var tb *MSHRTable
	var released []uint64
	tb = NewMSHRTable(2, func(w Waiter, at sim.Time) {
		released = append(released, w.Addr)
		if w.Addr == 0x40 {
			e := tb.Allocate(0xc0, false)
			e.Waiters = append(e.Waiters, Waiter{Addr: 0xc0})
		}
	})
	m := tb.Allocate(0x40, false)
	m.Waiters = append(m.Waiters, Waiter{Addr: 0x40}, Waiter{Addr: 0x44})
	tb.Complete(0x40, 0)
	if len(released) != 2 || released[0] != 0x40 || released[1] != 0x44 {
		t.Fatalf("released %#x, want [0x40 0x44]", released)
	}
	n, ok := tb.Lookup(0xc0)
	if !ok || n == m || len(n.Waiters) != 1 {
		t.Fatalf("entry allocated during release = %+v (reused completing entry: %v)", n, n == m)
	}
}
