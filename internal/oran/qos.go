package oran

import (
	"fmt"
	"time"
)

// RuleTable models a UPF's Packet Detection Rule (PDR) / QoS Enforcement
// Rule (QER) table. Jain [32] observes that a context-aware QoS model
// that dynamically prioritizes the rules of active flows reduces both
// lookup and update latencies and lets multiple flows per UE be
// prioritized simultaneously; this type reproduces that mechanism with a
// move-to-front rule list over a linear-match datapath.
type RuleTable struct {
	rules        []Rule
	contextAware bool
	perRuleCost  time.Duration // cost of evaluating one rule
	lookups      uint64
	scanned      uint64
}

// Rule is one PDR with its enforcement action.
type Rule struct {
	FlowID   int
	UEID     int
	Priority int // smaller is more important (informational)
}

// NewRuleTable builds a table. When contextAware is true, matched rules
// migrate towards the front of the table (the dynamic prioritization of
// [32]); otherwise the table keeps its installation order, as a
// conventional UPF does.
func NewRuleTable(rules []Rule, contextAware bool) *RuleTable {
	return &RuleTable{
		rules:        append([]Rule(nil), rules...),
		contextAware: contextAware,
		perRuleCost:  120 * time.Nanosecond,
	}
}

// Lookup finds the rule for a flow, returning the match latency. A miss
// scans the whole table and reports ok=false.
func (t *RuleTable) Lookup(flowID int) (latency time.Duration, ok bool) {
	t.lookups++
	for i, r := range t.rules {
		if r.FlowID == flowID {
			t.scanned += uint64(i + 1)
			if t.contextAware && i > 0 {
				// Move-to-front: subsequent packets of active flows (and
				// other flows of the same UE, which cluster in arrival
				// order) match early.
				rule := t.rules[i]
				copy(t.rules[1:i+1], t.rules[:i])
				t.rules[0] = rule
			}
			return time.Duration(i+1) * t.perRuleCost, true
		}
	}
	t.scanned += uint64(len(t.rules))
	return time.Duration(len(t.rules)) * t.perRuleCost, false
}

// MeanScan returns the average number of rules evaluated per lookup.
func (t *RuleTable) MeanScan() float64 {
	if t.lookups == 0 {
		return 0
	}
	return float64(t.scanned) / float64(t.lookups)
}

func (t *RuleTable) String() string {
	mode := "static"
	if t.contextAware {
		mode = "context-aware"
	}
	return fmt.Sprintf("RuleTable(%d rules, %s, mean scan %.1f)", len(t.rules), mode, t.MeanScan())
}
