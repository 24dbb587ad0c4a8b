package analysis

import (
	"dmt/internal/analysis/determinism"
	"dmt/internal/analysis/handles"
	"dmt/internal/analysis/lint"
	"dmt/internal/analysis/noretain"
	"dmt/internal/analysis/unreached"
)

// All returns the dmt-lint analyzers in a stable order, built afresh: an
// analyzer that keeps state across the packages of a run (unreached) must
// not carry it into the next run.
func All() []*lint.Analyzer {
	return append(handles.Analyzers(),
		determinism.Analyzer,
		noretain.Analyzer,
		unreached.New(),
	)
}
