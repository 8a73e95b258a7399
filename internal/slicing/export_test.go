package slicing

// Admission packs slices onto shared infrastructure: total share <= 1.
type Admission struct {
	admitted []Slice
	share    float64
}

// Admit accepts the slice if capacity remains; it returns false when the
// slice would oversubscribe the infrastructure.
func (a *Admission) Admit(s Slice) (bool, error) {
	if err := s.Validate(); err != nil {
		return false, err
	}
	if a.share+s.Share > 1+1e-12 {
		return false, nil
	}
	a.admitted = append(a.admitted, s)
	a.share += s.Share
	return true, nil
}

// Admitted returns the admitted slices.
func (a *Admission) Admitted() []Slice { return a.admitted }

// RemainingShare returns unallocated capacity.
func (a *Admission) RemainingShare() float64 { return 1 - a.share }
