// Package stats is a stub of the real stats package: the sample and
// summary methods the sharedresult check classifies as writes.
package stats

type Summary struct{ n int }

func (s *Summary) Add(x float64) { s.n++ }
func (s Summary) Mean() float64  { return 0 }

type Sample struct {
	Summary
	xs []float64
}

func (s *Sample) Add(x float64)                   { s.xs = append(s.xs, x) }
func (s *Sample) AddDuration(d int64)             { s.Add(float64(d)) }
func (s *Sample) Values() []float64               { return s.xs }
func (s *Sample) Quantile(q float64) float64      { return q }
func (s *Sample) FractionBelow(x float64) float64 { return x }
func (s *Sample) Clone() *Sample                  { cp := *s; return &cp }
