package geo

import (
	"fmt"
	"sort"
	"strconv"
	"unicode/utf8"
)

// CellID identifies one cell of a sector grid. Columns are lettered from
// west to east (A, B, C, ...), rows are numbered from north to south
// starting at 1, so "C3" is the third column, third row — matching the
// labelling of Figure 1 in the paper.
type CellID struct {
	Col int // 0-based: 0 = "A"
	Row int // 1-based: 1 = northernmost row
}

// String renders the cell in the paper's "C3" notation. Cells in the
// cellNames table return its interned string and allocate nothing;
// any other cell is formatted afresh.
func (c CellID) String() string {
	if uint(c.Col) < uint(len(cellNames)) && uint(c.Row) < uint(len(cellNames[0])) {
		return cellNames[c.Col][c.Row]
	}
	return formatCell(c.Col, c.Row)
}

// cellNames interns the names of columns A–Z by rows 0–15, which covers
// the 6×7 Klagenfurt grid with room to spare. It is filled once at
// package init and only read after.
var cellNames = func() (t [26][16]string) {
	for col := range t {
		for row := range t[col] {
			t[col][row] = formatCell(col, row)
		}
	}
	return t
}()

// formatCell builds a cell's name in a stack buffer (one rune, at most
// 4 bytes, then a base-10 int64, at most 20), so the returned string is
// its only allocation.
func formatCell(col, row int) string {
	var buf [utf8.UTFMax + 20]byte
	b := utf8.AppendRune(buf[:0], 'A'+rune(col))
	return string(strconv.AppendInt(b, int64(row), 10))
}

// ParseCellID parses the "C3" notation back into a CellID.
func ParseCellID(s string) (CellID, error) {
	if len(s) < 2 {
		return CellID{}, fmt.Errorf("geo: malformed cell id %q", s)
	}
	col := int(s[0] - 'A')
	if col < 0 || col > 25 {
		return CellID{}, fmt.Errorf("geo: malformed cell column in %q", s)
	}
	row, ok := parseDigits(s[1:])
	if !ok {
		row = scanRow(s[1:])
	}
	if row < 1 {
		return CellID{}, fmt.Errorf("geo: malformed cell row in %q", s)
	}
	return CellID{Col: col, Row: row}, nil
}

// parseDigits reads s as a base-10 row number when s is nothing but
// ASCII digits, few enough that the value cannot overflow an int; it
// reports false for anything else.
func parseDigits(s string) (int, bool) {
	if len(s) == 0 || len(s) > 18 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	return n, true
}

// scanRow is the lenient reading of anything but plain digits: fmt's
// "%d", which skips leading spaces, takes a sign and ignores whatever
// follows the number. It returns 0 when there is no number. It is kept
// out of ParseCellID so that the escaping row only costs this path an
// allocation.
func scanRow(s string) int {
	var row int
	if _, err := fmt.Sscanf(s, "%d", &row); err != nil {
		return 0
	}
	return row
}

// Grid is a rectangular partition of a sector into square cells, anchored
// at a northwest origin. The campaign uses 1 km cells, 6 columns (A-F)
// and 7 rows (1-7), per Figure 1.
type Grid struct {
	Origin Point   // northwest corner of cell A1
	CellKm float64 // side length of a cell
	Cols   int
	Rows   int
}

// NewKlagenfurtGrid returns the sector grid used by the paper's campaign:
// 6 x 7 cells of 1 km anchored northwest of the University of Klagenfurt.
func NewKlagenfurtGrid() *Grid {
	// Anchor so that the city centre falls near C3 and the university
	// campus (the RIPE Atlas reference) near E3, as in Figure 1.
	origin := Destination(Destination(Klagenfurt, 270, 2.8), 0, 2.6)
	return &Grid{Origin: origin, CellKm: 1.0, Cols: 6, Rows: 7}
}

// Contains reports whether the cell id addresses a cell of this grid.
func (g *Grid) Contains(c CellID) bool {
	return c.Col >= 0 && c.Col < g.Cols && c.Row >= 1 && c.Row <= g.Rows
}

// Cells enumerates all cells row-major (A1, B1, ..., F1, A2, ...).
func (g *Grid) Cells() []CellID {
	out := make([]CellID, 0, g.Cols*g.Rows)
	for row := 1; row <= g.Rows; row++ {
		for col := 0; col < g.Cols; col++ {
			out = append(out, CellID{Col: col, Row: row})
		}
	}
	return out
}

// Center returns the geographic centre of a cell.
func (g *Grid) Center(c CellID) Point {
	if !g.Contains(c) {
		panic(fmt.Sprintf("geo: cell %v outside grid", c))
	}
	east := (float64(c.Col) + 0.5) * g.CellKm
	south := (float64(c.Row-1) + 0.5) * g.CellKm
	return Destination(Destination(g.Origin, 90, east), 180, south)
}

// Offset returns the point at (eastKm, southKm) from the cell's northwest
// corner; both offsets must lie within [0, CellKm].
func (g *Grid) Offset(c CellID, eastKm, southKm float64) Point {
	if eastKm < 0 || eastKm > g.CellKm || southKm < 0 || southKm > g.CellKm {
		panic("geo: offset outside cell")
	}
	east := float64(c.Col)*g.CellKm + eastKm
	south := float64(c.Row-1)*g.CellKm + southKm
	return Destination(Destination(g.Origin, 90, east), 180, south)
}

// IsBorder reports whether the cell lies on the outer ring of the grid —
// the "border regions" Figure 2 marks with 0.0 due to sparse population.
func (g *Grid) IsBorder(c CellID) bool { //sweepvet:allow(deadapi) oracle for campaign's TestSparseCellsReportZero
	return c.Col == 0 || c.Col == g.Cols-1 || c.Row == 1 || c.Row == g.Rows
}

// SortCells orders cell ids row-major in place (for stable reporting).
func SortCells(cells []CellID) {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Row != cells[j].Row {
			return cells[i].Row < cells[j].Row
		}
		return cells[i].Col < cells[j].Col
	})
}
