package user

import "dmt/ur/internal/decl"

// Another package's test reaches decl.OtherTest and T.OtherTestMethod.
func useFromTest() { decl.OtherTest(); decl.T{}.OtherTestMethod() }
