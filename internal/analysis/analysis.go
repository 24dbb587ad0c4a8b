package analysis

import (
	"dmt/internal/analysis/determinism"
	"dmt/internal/analysis/lint"
	"dmt/internal/analysis/noretain"
	"dmt/internal/analysis/pendingwait"
	"dmt/internal/analysis/retainrelease"
)

// All returns the dmt-lint analyzers in a stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		pendingwait.Analyzer,
		retainrelease.Analyzer,
		determinism.Analyzer,
		noretain.Analyzer,
	}
}
