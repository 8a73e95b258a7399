// Package vetdead_use uses vetdead's live API from outside internal/,
// and exports names of its own that deadapi leaves alone: only
// packages under internal/ are checked.
package vetdead_use

import (
	"fmt"

	"repro/internal/vetdead"
)

// Namer is satisfied by vetdead.T.
type Namer interface{ Name() string }

func Describe() string {
	var t vetdead.T
	return fmt.Sprint(vetdead.Used(), t)
}
