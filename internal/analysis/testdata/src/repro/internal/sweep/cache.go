// Package sweep is a stub of the real sweep package: the cache entry
// points whose non-raw results and rendered bytes are shared.
package sweep

import "repro/internal/campaign"

type Want struct {
	Raw    bool
	Stages any
}

type Scenario struct {
	ID     string
	Config campaign.Config
}

type Encoding int

const (
	EncodingJSON Encoding = iota
	EncodingTLV
)

type Cache struct{}

func (c *Cache) Resolve(sc Scenario, want Want) (*campaign.Result, bool, error) {
	return nil, false, nil
}

func (c *Cache) Rendered(id string, enc Encoding, render func() []byte) []byte {
	return render()
}
