// Package campaign is a stub of the real campaign package: the result
// type the sweep cache shares.
package campaign

import "repro/internal/stats"

type Config struct{ Seed uint64 }

type CellReport struct {
	Cell string
	N    int
}

type Result struct {
	Config            Config
	Samples           map[string]*stats.Sample
	Reports           []CellReport
	MobileAll         stats.Summary
	TotalMeasurements int
}

func (r *Result) Clone() *Result { cp := *r; return &cp }
