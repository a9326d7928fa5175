package analysis

import (
	"fmt"
	"sort"
)

// EnvPlan is the oracle's product in measurement-planning form: over one
// environment-size grid, the points whose predicted memory-system signature
// differs from their left neighbour. Between two consecutive boundaries the
// oracle predicts constant measured cycles, so a dense sweep whose grid
// skips a plateau reports nothing about it.
//
// The struct is the shared contract between `biaslab predict -json` and the
// auditor's oracle rules: both build it through internal/core's Plan*Sweep
// functions, so what the command emits is exactly what the auditor judges.
type EnvPlan struct {
	Bench   string `json:"bench"`
	Machine string `json:"machine"`
	// Channel names the layout perturbation the grid walks: "env" (stack
	// displacement via environment bytes), "pad" (inter-object text padding),
	// "base" (image-base displacement), or "link" (link order). Empty means
	// "env" (plans predate the field).
	Channel string   `json:"channel,omitempty"`
	Sizes   []uint64 `json:"sizes"`
	// Boundaries are indices into Sizes where the predicted signature
	// differs from the previous grid point's, under any contributing
	// conflict map. Index 0 is never a boundary (it has no left neighbour).
	Boundaries []int `json:"boundaries"`
	// Exact reports whether every contributing map claimed exactness (no
	// approximate footprint, no set pressure, no unmodelled mechanism).
	// Inexact plans are still useful as a map of where to look, but they
	// carry no standalone guarantee.
	Exact   bool     `json:"exact"`
	Reasons []string `json:"reasons,omitempty"`
}

// NewEnvPlan merges one or more conflict maps computed over the same grid —
// typically one per compiler level, since an env sweep measures both O2 and
// O3 binaries — into a single plan whose boundaries are the union of every
// map's predicted transitions.
func NewEnvPlan(benchName, machineName string, sizes []uint64, maps ...*ConflictMap) (*EnvPlan, error) {
	if len(maps) == 0 {
		return nil, fmt.Errorf("analysis: NewEnvPlan needs at least one conflict map")
	}
	p := &EnvPlan{Bench: benchName, Machine: machineName, Sizes: sizes, Exact: true}
	mark := make([]bool, len(sizes))
	seenReason := map[string]bool{}
	addReason := func(r string) {
		if !seenReason[r] {
			seenReason[r] = true
			p.Reasons = append(p.Reasons, r)
		}
	}
	for _, cm := range maps {
		if len(cm.Sizes) != len(sizes) {
			return nil, fmt.Errorf("analysis: conflict map grid has %d sizes, plan grid %d", len(cm.Sizes), len(sizes))
		}
		for i, sz := range cm.Sizes {
			if sz != sizes[i] {
				return nil, fmt.Errorf("analysis: conflict map grid differs from plan grid at index %d (%d vs %d)", i, sz, sizes[i])
			}
		}
		for i := 1; i < len(cm.Signatures); i++ {
			if !cm.Signatures[i].same(cm.Signatures[i-1]) {
				mark[i] = true
			}
		}
		if cm.Approx {
			p.Exact = false
			for _, r := range cm.ApproxReasons {
				addReason(r)
			}
		}
		if cm.PressureAnywhere {
			p.Exact = false
			addReason("set pressure at some grid point")
		}
	}
	for i, m := range mark {
		if m {
			p.Boundaries = append(p.Boundaries, i)
		}
	}
	sort.Strings(p.Reasons)
	return p, nil
}

// NewChannelPlan merges one or more channel conflict maps computed over the
// same grid into a plan. The mapping from pairwise verdicts to boundaries is
// conservative: a plateau extends across grid point i only when every
// contributing map proved point i EQUAL to point i-1; any TRANSITION or
// UNKNOWN consecutive pair becomes a boundary. The plan is Exact only when
// every consecutive pair was decided (no UNKNOWN) and no map was approximate
// — then every claimed plateau is a proof, and every boundary is either a
// proven transition or honestly absent from the guarantee.
func NewChannelPlan(benchName, machineName string, values []uint64, maps ...*ChannelConflictMap) (*EnvPlan, error) {
	if len(maps) == 0 {
		return nil, fmt.Errorf("analysis: NewChannelPlan needs at least one channel conflict map")
	}
	p := &EnvPlan{Bench: benchName, Machine: machineName, Channel: maps[0].Channel, Sizes: values, Exact: true}
	mark := make([]bool, len(values))
	seenReason := map[string]bool{}
	addReason := func(r string) {
		if !seenReason[r] {
			seenReason[r] = true
			p.Reasons = append(p.Reasons, r)
		}
	}
	for _, cm := range maps {
		if cm.Channel != p.Channel {
			return nil, fmt.Errorf("analysis: mixed channels %q and %q in one plan", p.Channel, cm.Channel)
		}
		if len(cm.Values) != len(values) {
			return nil, fmt.Errorf("analysis: channel map grid has %d values, plan grid %d", len(cm.Values), len(values))
		}
		for i, v := range cm.Values {
			if v != values[i] {
				return nil, fmt.Errorf("analysis: channel map grid differs from plan grid at index %d (%d vs %d)", i, v, values[i])
			}
		}
		for i := 1; i < len(values); i++ {
			pr := cm.Pair(i-1, i)
			if pr == nil || pr.Verdict != VerdictEqual {
				mark[i] = true
			}
			if pr != nil && pr.Verdict == VerdictUnknown {
				p.Exact = false
				addReason(fmt.Sprintf("undecided pair %d→%d: %s", values[i-1], values[i], pr.Reason))
			}
		}
		if cm.Approx {
			p.Exact = false
			for _, r := range cm.ApproxReasons {
				addReason(r)
			}
		}
	}
	for i, m := range mark {
		if m {
			p.Boundaries = append(p.Boundaries, i)
		}
	}
	sort.Strings(p.Reasons)
	return p, nil
}
