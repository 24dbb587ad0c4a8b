// Package user reaches decl from outside it; its own exported functions
// are not in an internal/ package, so nothing here is flagged.
package user

import "dmt/ur/internal/decl"

// Use calls decl from non-test code.
func Use() int {
	decl.OtherNonTest()
	return decl.Generic(1)
}
