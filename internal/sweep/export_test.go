package sweep

import (
	"sync/atomic"
	"testing"
)

// CountRuns exposes the countRuns campaign-execution counter to the
// external sweep_test package, which hosts the store-backed tests: an
// in-package import of the store would cycle store → tlv → sweep back
// into the test binary.
func CountRuns(t *testing.T) *atomic.Int64 { return countRuns(t) }

// Aggregate exposes the variant aggregation to the external sweep_test
// package, which can import the TLV codec.
func Aggregate(runs []ScenarioRun) []Variant { return aggregate(runs) }

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
