package requirements

// ClassByName finds a catalogue entry.
func ClassByName(name string) (Class, bool) {
	for _, c := range Catalog {
		if c.Name == name {
			return c, true
		}
	}
	return Class{}, false
}

// SatisfiedCount returns how many verdicts are within budget.
func SatisfiedCount(vs []Verdict) int {
	n := 0
	for _, v := range vs {
		if v.Satisfied {
			n++
		}
	}
	return n
}
