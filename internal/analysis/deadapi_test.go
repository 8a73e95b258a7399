package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestDeadAPI(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.DeadAPI,
		"repro/internal/vetdead", "repro/cmd/vetdead_use")
}
