package policy

import (
	"fmt"

	"memsim/internal/memctrl"
)

// DefaultReorderWindow is the frfcfs-cap scan window a bare
// sched_policy=frfcfs-cap knob gets, and counterfactual alternatives use.
const DefaultReorderWindow = 8

// SchedParams carries the knobs a scheduling factory may use.
type SchedParams struct {
	// Window bounds the FR-FCFS scan depth; only "frfcfs-cap" uses it.
	Window int
}

// Sched is the memory-scheduling registry: factories produce the
// controller's issue policy.
var Sched = NewRegistry[func(SchedParams) (memctrl.IssuePolicy, error)]("scheduling")

func init() {
	Sched.Register("fcfs", func(SchedParams) (memctrl.IssuePolicy, error) {
		return memctrl.FCFS{}, nil
	})
	Sched.Register("frfcfs", func(SchedParams) (memctrl.IssuePolicy, error) {
		return memctrl.FRFCFS{}, nil
	})
	Sched.Register("frfcfs-cap", func(p SchedParams) (memctrl.IssuePolicy, error) {
		if p.Window < 2 {
			return nil, fmt.Errorf("policy: frfcfs-cap needs a reorder window >= 2, got %d", p.Window)
		}
		return memctrl.FRFCFS{Window: p.Window}, nil
	})
}

// NewSched builds the named scheduling policy.
func NewSched(name string, p SchedParams) (memctrl.IssuePolicy, error) {
	f, err := Sched.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(p)
}

// SchedAlternatives builds every registered scheduling policy except
// the primary, in sorted name order — the counterfactual alternative
// set. A capped alternative scans DefaultReorderWindow entries (only
// a "frfcfs-cap" primary sets a window, and it is no alternative).
func SchedAlternatives(primary string) []memctrl.IssuePolicy {
	var alts []memctrl.IssuePolicy
	for _, name := range Sched.Names() {
		if name == primary {
			continue
		}
		pol, err := NewSched(name, SchedParams{Window: DefaultReorderWindow})
		if err != nil {
			continue
		}
		alts = append(alts, pol)
	}
	return alts
}
