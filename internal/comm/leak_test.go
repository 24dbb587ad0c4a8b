package comm

import (
	"testing"

	"dmt/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
