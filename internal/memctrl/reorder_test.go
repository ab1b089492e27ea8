package memctrl

import (
	"testing"

	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/dram"
	"memsim/internal/sim"
)

// newReorderController builds a 1-channel/1-device system where bank
// geometry is easy to reason about under the base mapping. A nil pol
// keeps the controller's default policy.
func newReorderController(t *testing.T, pol IssuePolicy) (*sim.Scheduler, *Controller, addrmap.Mapper) {
	t.Helper()
	g := addrmap.Geometry{Channels: 1, DevicesPerChannel: 1}
	ch, err := channel.New(channel.Config{Geometry: g, Timing: dram.Part800x40})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := addrmap.NewBase(g)
	s := sim.NewScheduler()
	c := New(s, ch, m)
	if pol != nil {
		c.SetPolicy(pol)
	}
	return s, c, m
}

func TestReorderPrefersOpenRow(t *testing.T) {
	s, c, _ := newReorderController(t, FRFCFS{Window: 4})
	var order []string
	// Prime: open row 0 of bank 0 with an initial access.
	c.Submit(&Request{Addr: 0, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time, any) { order = append(order, "prime") }})
	// Queue a row-conflicting request, then a row-hit one, at the same
	// instant. With reordering the row hit goes first.
	conflict := uint64(dram.RowBytes) * dram.BanksPerDevice // same bank, next row
	c.Submit(&Request{Addr: conflict, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time, any) { order = append(order, "conflict") }})
	c.Submit(&Request{Addr: 512, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time, any) { order = append(order, "hit") }})
	s.Run()
	if len(order) != 3 || order[1] != "hit" {
		t.Fatalf("order = %v, want the open-row request promoted", order)
	}
	if c.Stats().Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", c.Stats().Reordered)
	}
}

func TestInOrderByDefault(t *testing.T) {
	s, c, _ := newReorderController(t, nil)
	var order []string
	c.Submit(&Request{Addr: 0, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time, any) { order = append(order, "prime") }})
	conflict := uint64(dram.RowBytes) * dram.BanksPerDevice
	c.Submit(&Request{Addr: conflict, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time, any) { order = append(order, "conflict") }})
	c.Submit(&Request{Addr: 512, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time, any) { order = append(order, "hit") }})
	s.Run()
	if len(order) != 3 || order[1] != "conflict" {
		t.Fatalf("order = %v, want strict submission order", order)
	}
	if c.Stats().Reordered != 0 {
		t.Fatalf("Reordered = %d, want 0", c.Stats().Reordered)
	}
}

func TestReorderWindowBounded(t *testing.T) {
	s, c, _ := newReorderController(t, FRFCFS{Window: 2})
	var order []string
	c.Submit(&Request{Addr: 0, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time, any) { order = append(order, "prime") }})
	conflict := uint64(dram.RowBytes) * dram.BanksPerDevice
	// Two conflicts ahead of the row hit: with window 2 the hit (at
	// queue position 2) is out of reach for the first decision.
	c.Submit(&Request{Addr: conflict, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time, any) { order = append(order, "c1") }})
	c.Submit(&Request{Addr: conflict + 1024, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time, any) { order = append(order, "c2") }})
	c.Submit(&Request{Addr: 512, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time, any) { order = append(order, "hit") }})
	s.Run()
	if order[1] != "c1" {
		t.Fatalf("order = %v; request beyond the window must not be promoted", order)
	}
}
