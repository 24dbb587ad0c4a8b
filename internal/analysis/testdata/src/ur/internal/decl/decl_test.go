package decl

// An in-package test's call reaches nothing outside decl's tests.
func callFromOwnTest() { OnlyOwnTests(); unexported(); new(T).OwnTestsMethod() }
