// Package sweep is a stub of the real sweep package: the cache entry
// point whose non-raw results are shared.
package sweep

import "repro/internal/campaign"

type Want struct {
	Raw    bool
	Stages any
}

type Cache struct{}

func (c *Cache) Resolve(cfg campaign.Config, want Want) (*campaign.Result, bool, error) {
	return nil, false, nil
}
