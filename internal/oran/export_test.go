package oran

import (
	"time"
)

// AsyncCoreLoad returns the number of non-blocking core notifications a
// procedure generates (background signalling cost of edge consolidation).
func (cp *ControlPlane) AsyncCoreLoad(p Procedure) int { return cp.recipeFor(p).asyncCore }

// Len returns the number of installed rules.
func (t *RuleTable) Len() int { return len(t.rules) }

// Update modifies the rule of a flow (a QER change), returning the update
// latency: the lookup cost plus a fixed write cost.
func (t *RuleTable) Update(flowID int, newPriority int) (time.Duration, bool) {
	lat, ok := t.Lookup(flowID)
	const writeCost = 500 * time.Nanosecond
	if !ok {
		return lat, false
	}
	// After a context-aware lookup the rule sits at the front.
	for i := range t.rules {
		if t.rules[i].FlowID == flowID {
			t.rules[i].Priority = newPriority
			break
		}
	}
	return lat + writeCost, true
}

// Cells returns the RIC's current cell view.
func (r *RIC) Cells() []*RICCell { return r.cells }
