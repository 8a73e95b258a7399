package report

import (
	"repro/internal/geo"
)

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Value returns the value and whether the cell was set.
func (cg *CellGrid) Value(c geo.CellID) (float64, bool) {
	return cg.vals[c], cg.has[c]
}
