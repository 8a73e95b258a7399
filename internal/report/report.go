// Package report renders experiment results as aligned text tables, cell
// grids (the textual equivalent of the paper's Figure 2/3 heat maps) and
// CSV, so every figure and table of the paper has a printable analogue.
package report

import (
	"fmt"
	"strings"

	"repro/internal/geo"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	var rule []string
	for i := 0; i < cols; i++ {
		rule = append(rule, strings.Repeat("-", width[i]))
	}
	writeRow(rule)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no escaping needed for
// the numeric content produced here; commas in cells are replaced).
func (t *Table) CSV() string {
	var b strings.Builder
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(clean(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CellGrid renders per-cell values over the campaign grid in the layout
// of Figure 2 / Figure 3: columns A..F west-to-east, rows 1..7
// north-to-south, one decimal place, dashes for cells never traversed.
type CellGrid struct {
	Title string
	Grid  *geo.Grid
	vals  map[geo.CellID]float64
	has   map[geo.CellID]bool
}

// NewCellGrid creates an empty grid rendering.
func NewCellGrid(title string, g *geo.Grid) *CellGrid {
	return &CellGrid{
		Title: title,
		Grid:  g,
		vals:  make(map[geo.CellID]float64),
		has:   make(map[geo.CellID]bool),
	}
}

// Set assigns a value to a cell (0.0 is a legitimate value: the paper's
// "fewer than ten measurements" marker).
func (cg *CellGrid) Set(c geo.CellID, v float64) {
	cg.vals[c] = v
	cg.has[c] = true
}

// String renders the grid.
func (cg *CellGrid) String() string {
	var b strings.Builder
	if cg.Title != "" {
		b.WriteString(cg.Title)
		b.WriteByte('\n')
	}
	b.WriteString("     ")
	for col := 0; col < cg.Grid.Cols; col++ {
		fmt.Fprintf(&b, "%8c", 'A'+rune(col))
	}
	b.WriteByte('\n')
	for row := 1; row <= cg.Grid.Rows; row++ {
		fmt.Fprintf(&b, "%4d ", row)
		for col := 0; col < cg.Grid.Cols; col++ {
			c := geo.CellID{Col: col, Row: row}
			if cg.has[c] {
				fmt.Fprintf(&b, "%8.1f", cg.vals[c])
			} else {
				fmt.Fprintf(&b, "%8s", "--")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
