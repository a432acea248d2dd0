// Package place is a test double of the placement package: the banned
// admission machinery plus one data helper that stays usable.
package place

// Admitter and Admitted stand in for the admission path and its grants.
type Admitter struct{}
type Admitted struct{}

// NewAdmitter constructs the admitter binaries must not touch.
func NewAdmitter() *Admitter { return &Admitter{} }

// Score is a data helper outside the banned-object list.
func Score() int { return 0 }
