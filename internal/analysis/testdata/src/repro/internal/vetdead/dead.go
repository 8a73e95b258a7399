// Package vetdead seeds exported API that nothing outside tests uses,
// next to the shapes deadapi tolerates: names another package uses,
// methods that satisfy an interface, and argued exceptions.
package vetdead

// Used is called from repro/cmd/vetdead_use.
func Used() int { return helper() }

// helper's local Spare shadows the package's, which stays dead.
func helper() int {
	Spare := Limit
	return Spare
}

// Limit is read by helper, which Used reaches.
const Limit = 3

func Unused() {} // want `exported func Unused has no non-test reference in the module`

// Loop only calls itself, which keeps nothing alive.
func Loop(n int) int { // want `exported func Loop has no non-test reference`
	if n == 0 {
		return 0
	}
	return Loop(n - 1)
}

// TestOnly is called from dead_test.go alone.
func TestOnly() {} // want `exported func TestOnly has no non-test reference`

const Retired = 2 // want `exported const Retired has no non-test reference`

var Spare = 4 // want `exported var Spare has no non-test reference`

type Orphan struct{} // want `exported type Orphan has no non-test reference`

// Only its own methods name Orphan, which keeps neither alive.
func (o *Orphan) Reset() *Orphan { return o } // want `exported method Orphan.Reset has no non-test reference`

// T is used from repro/cmd/vetdead_use.
type T struct{}

func (T) Dead() {} // want `exported method T.Dead has no non-test reference`

// String satisfies fmt.Stringer, so fmt may call it.
func (T) String() string { return "T" }

// Name satisfies an interface the module declares.
func (T) Name() string { return "t" }

// Error satisfies the built-in error interface.
func (T) Error() string { return "t" }

func Kept() {} //sweepvet:allow(deadapi) fixture: an argued exception
