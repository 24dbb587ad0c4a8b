package user

import "dmt/ur/internal/decl"

// Another package's test reaches decl.OtherTest.
func useFromTest() { decl.OtherTest() }
