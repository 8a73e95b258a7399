package cluster

// Lookup returns the owning member for key.
func (r *Ring) Lookup(key string) string { return r.Order(key)[0] }

// Order returns every member in preference order for key: walk
// clockwise from the key's hash, keeping the first point of each
// distinct member.
func (r *Ring) Order(key string) []string {
	idx := r.walk(ringHash(key), make([]int, 0, len(r.members)))
	out := make([]string, len(idx))
	for i, m := range idx {
		out[i] = r.members[m]
	}
	return out
}
