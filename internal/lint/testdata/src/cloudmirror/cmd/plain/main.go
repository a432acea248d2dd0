// Command plain names the admitter with the default package name: the
// shape grep rule 2 also catches.
package main

import "cloudmirror/internal/place"

func main() {
	_ = place.NewAdmitter() // want `reference to cloudmirror/internal/place\.NewAdmitter breaches the place-admission boundary`
	var _ *place.Admitted   // want `reference to cloudmirror/internal/place\.Admitted breaches the place-admission boundary`
}
