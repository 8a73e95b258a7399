package energy

import (
	"repro/internal/ran"
)

// RadioFor maps a ran.Profile to its energy model.
func RadioFor(p *ran.Profile) RadioModel {
	switch p {
	case ran.Profile5GURLLC:
		return Radio5GURL
	case ran.Profile6G:
		return Radio6G
	default:
		return Radio5G
	}
}
