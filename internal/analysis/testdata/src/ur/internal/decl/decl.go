// Package decl declares the exported functions the unreached fixtures
// reach, or fail to reach, from ur/user and from decl's own tests.
package decl

// OnlyOwnTests is called from decl's in-package and external tests alone.
func OnlyOwnTests() {} // want `exported function OnlyOwnTests is reached from nothing but its own package's tests`

// Unused is referenced nowhere.
func Unused() {} // want `exported function Unused is reached from nothing but its own package's tests`

// Recursive refers only to itself.
func Recursive(n int) int { // want `exported function Recursive is reached from nothing but its own package's tests`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// SameNonTest is called from this file's unexported helper.
func SameNonTest() {}

func helper() { SameNonTest() }

// OtherNonTest is called from ur/user's non-test code.
func OtherNonTest() {}

// OtherTest is called from ur/user's tests.
func OtherTest() {}

// Generic is called from ur/user with its type argument inferred.
func Generic[T any](x T) T { return x }

// T carries a method nothing calls: methods are out of scope.
type T struct{}

// Method is unused.
func (T) Method() {}

func unexported() {}
