package ran

import (
	"math"
)

// CDF returns P(latency < ms) analytically.
func (p PHY) CDF(ms float64) float64 {
	if ms <= 0 {
		return 0
	}
	z := (math.Log(ms) - p.Mu) / p.Sigma
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
