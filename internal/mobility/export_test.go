package mobility

import (
	"time"

	"repro/internal/geo"
)

// Duration returns the virtual time a plan occupies.
func (p Plan) Duration() time.Duration {
	var d time.Duration
	for _, s := range p.Stops {
		d += TravelTime
		d += time.Duration(s.Rounds) * RoundInterval
		if s.PartialPings > 0 {
			d += RoundInterval / 2
		}
	}
	return d
}

// CellsVisited returns the distinct cells of a plan in visit order.
func (p Plan) CellsVisited() []geo.CellID {
	seen := map[geo.CellID]bool{}
	var out []geo.CellID
	for _, s := range p.Stops {
		if !seen[s.Cell] {
			seen[s.Cell] = true
			out = append(out, s.Cell)
		}
	}
	return out
}
