package protocols

// SpecFor returns the latency spec of a protocol.
func SpecFor(p Protocol) Spec { return specs[p] }
