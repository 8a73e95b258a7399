package topo

// LocalPeeringEnabled reports whether EnableLocalPeering has been applied.
func (ce *CentralEurope) LocalPeeringEnabled() bool { return ce.peeringEnabled }
