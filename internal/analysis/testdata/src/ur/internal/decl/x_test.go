package decl_test

import "dmt/ur/internal/decl"

// An external test's call is still decl's own test.
func callFromExternalTest() { decl.OnlyOwnTests(); new(decl.T).OwnTestsMethod() }
