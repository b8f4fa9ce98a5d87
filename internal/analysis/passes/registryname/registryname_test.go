package registryname_test

import (
	"testing"

	"dynspread/internal/analysis/analysistest"
	"dynspread/internal/analysis/passes/registryname"
)

func TestRegistryInPackage(t *testing.T) {
	// regbad holds every registry finding: all of them are local to one
	// package.
	analysistest.Run(t, ".", registryname.Analyzer, "regbad")
}
