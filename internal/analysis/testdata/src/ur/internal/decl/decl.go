// Package decl declares the exported functions and methods the unreached
// fixtures reach, or fail to reach, from ur/user and from decl's own tests.
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

// T carries the methods ur/user and decl's own tests reach, or fail to.
type T struct{}

// Method is referenced nowhere.
func (T) Method() {} // want `exported method T.Method is reached from nothing but its own package's tests`

// OwnTestsMethod is called from decl's in-package and external tests alone.
func (*T) OwnTestsMethod() {} // want `exported method T.OwnTestsMethod is reached from nothing but its own package's tests`

// OtherNonTestMethod is called from ur/user's non-test code.
func (T) OtherNonTestMethod() {}

// OtherTestMethod is called from ur/user's tests.
func (T) OtherTestMethod() {}

// Area is reached only through ur/user's call on an interface value.
func (T) Area() int { return 1 }

// Weight is reached only through a call on a type parameter in ur/user.
func (T) Weight() int { return 2 }

// String is reached only through fmt, which calls it as a fmt.Stringer.
func (T) String() string { return "t" }

// Inner's method is called from ur/user as Outer's promoted method.
type Inner struct{}

// Promoted is called from ur/user through Outer.
func (Inner) Promoted() {}

// Outer embeds Inner.
type Outer struct{ Inner }

// Stack is generic; ur/user calls its method on an instance.
type Stack[E any] struct{ items []E }

// Push is called from ur/user on a Stack[int].
func (s *Stack[E]) Push(e E) { s.items = append(s.items, e) }

func unexported() {}
