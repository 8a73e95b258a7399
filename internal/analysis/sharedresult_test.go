package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestSharedResult(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.SharedResult,
		"repro/internal/vetbad_shared")
}
