package metricname_test

import (
	"testing"

	"dynspread/internal/analysis/analysistest"
	"dynspread/internal/analysis/passes/metricname"
)

func TestMetricnameRuntimeNamespace(t *testing.T) {
	// obsruntime is the golden fixture for the dynspread_runtime_* names the
	// runtime/metrics bridge registers: conventional names pass, raw
	// runtime/metrics names and counter-suffixed gauges are flagged.
	analysistest.Run(t, ".", metricname.Analyzer, "obsruntime")
}

func TestMetricnameInPackage(t *testing.T) {
	// obsbad holds every naming finding: all of them are local to one
	// package.
	analysistest.Run(t, ".", metricname.Analyzer, "obsbad")
}
