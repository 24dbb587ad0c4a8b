// Package user reaches decl from outside it; its own exported functions
// are not in an internal/ package, so nothing here is flagged.
package user

import (
	"fmt"

	"dmt/ur/internal/decl"
)

// Use calls decl from non-test code.
func Use() int {
	decl.OtherNonTest()
	var t decl.T
	t.OtherNonTestMethod()
	var o decl.Outer
	o.Promoted()
	var s decl.Stack[int]
	s.Push(1)
	return decl.Generic(1) + area(t) + weigh([]decl.T{t}) + len(fmt.Sprint(t))
}

type shape interface{ Area() int }

// area calls Area through an interface value.
func area(s shape) int { return s.Area() }

// weigh calls Weight on values of a type parameter.
func weigh[W interface{ Weight() int }](ws []W) int {
	n := 0
	for _, w := range ws {
		n += w.Weight()
	}
	return n
}
