package cache

import (
	"fmt"
	"strings"

	"memsim/internal/sim"
)

// MSHR is one miss-status holding register: an outstanding fill for a
// block, with the requests merged into it.
type MSHR struct {
	Block uint64
	// PrefetchOnly is true while the fill was initiated by the
	// prefetcher and no demand request has merged into it. A demand
	// miss that finds an in-flight prefetch merges and clears this.
	PrefetchOnly bool
	// Waiters are the accesses merged into the fill, released with
	// the fill time.
	Waiters []Waiter
}

// Waiter is one access waiting on a fill: the address and direction
// the fill must satisfy and, for a load, the pre-bound completion to
// invoke as Done(at, Arg). Arg must be a pointer so holding it in an
// interface costs no allocation.
type Waiter struct {
	Addr  uint64
	Write bool
	Done  sim.Callback
	Arg   any
}

// MSHRTable tracks outstanding misses with bounded capacity, merging
// requests to the same block into one entry. Real tables hold a
// handful of entries (8 in the paper's data caches), so a linear scan
// beats hashing on the hot lookup path. Completed entries are kept on
// a freelist, waiter storage included, and reused by Allocate.
type MSHRTable struct {
	capacity int
	entries  []*MSHR
	free     []*MSHR
	release  func(w Waiter, at sim.Time)
	// HighWater tracks the maximum simultaneous occupancy observed.
	HighWater int
}

// NewMSHRTable returns a table with the given capacity whose entries
// hand each waiter to release when their fill completes.
func NewMSHRTable(capacity int, release func(w Waiter, at sim.Time)) *MSHRTable {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: MSHR capacity %d invalid", capacity))
	}
	return &MSHRTable{capacity: capacity, entries: make([]*MSHR, 0, capacity), release: release}
}

// Capacity reports the table size.
func (t *MSHRTable) Capacity() int { return t.capacity }

// Len reports current occupancy.
func (t *MSHRTable) Len() int { return len(t.entries) }

// Full reports whether no further entries can be allocated.
func (t *MSHRTable) Full() bool { return len(t.entries) >= t.capacity }

// Lookup returns the in-flight entry for the block, if any.
func (t *MSHRTable) Lookup(block uint64) (*MSHR, bool) {
	for _, m := range t.entries {
		if m.Block == block {
			return m, true
		}
	}
	return nil, false
}

// Allocate creates an entry for the block. It panics if the table is
// full or the block already has an entry; callers must check Full and
// Lookup first.
func (t *MSHRTable) Allocate(block uint64, prefetchOnly bool) *MSHR {
	if t.Full() {
		panic("cache: MSHR allocate on full table")
	}
	if _, ok := t.Lookup(block); ok {
		panic(fmt.Sprintf("cache: duplicate MSHR for block %#x", block))
	}
	var m *MSHR
	if n := len(t.free); n > 0 {
		m = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		m = &MSHR{}
	}
	m.Block, m.PrefetchOnly = block, prefetchOnly
	t.entries = append(t.entries, m)
	if len(t.entries) > t.HighWater {
		t.HighWater = len(t.entries)
	}
	return m
}

// Blocks returns the outstanding block addresses in allocation order.
// The paranoid invariant checker compares them against the memory
// controller's in-flight transfers.
func (t *MSHRTable) Blocks() []uint64 {
	out := make([]uint64, len(t.entries))
	for i, m := range t.entries {
		out[i] = m.Block
	}
	return out
}

// DebugString summarizes the table for diagnostic dumps.
func (t *MSHRTable) DebugString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d entries (high water %d)", len(t.entries), t.capacity, t.HighWater)
	for _, m := range t.entries {
		fmt.Fprintf(&b, "\n  block=%#x waiters=%d prefetchOnly=%v", m.Block, len(m.Waiters), m.PrefetchOnly)
	}
	return b.String()
}

// Complete removes the block's entry, releases its waiters with the
// fill time, and recycles the entry; callers must not keep *MSHR
// pointers past Complete. Completing an unknown block panics: it
// indicates a fill without a matching miss.
func (t *MSHRTable) Complete(block uint64, at sim.Time) {
	for i, m := range t.entries {
		if m.Block == block {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			// The entry is out of the table, so a waiter's release
			// cannot merge into it; it is recycled only afterwards, so
			// an Allocate during release cannot reuse it.
			for _, w := range m.Waiters {
				t.release(w, at)
			}
			clear(m.Waiters)
			m.Waiters = m.Waiters[:0]
			t.free = append(t.free, m)
			return
		}
	}
	panic(fmt.Sprintf("cache: MSHR complete for unknown block %#x", block))
}
