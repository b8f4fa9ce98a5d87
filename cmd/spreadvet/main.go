// Command spreadvet is the repository's multichecker: a vet tool bundling
// the custom analyzers from internal/analysis/passes. It speaks the
// `go vet -vettool` unit-checker protocol, so the usual invocation is
//
//	go build -o bin/spreadvet ./cmd/spreadvet
//	go vet -vettool=$PWD/bin/spreadvet ./...
//
// Run `spreadvet -help` for the list of analyzers; every one of them runs
// on every package go vet names.
package main

import (
	"dynspread/internal/analysis"
	"dynspread/internal/analysis/passes/hotpath"
	"dynspread/internal/analysis/passes/metricname"
	"dynspread/internal/analysis/passes/registryname"
	"dynspread/internal/analysis/passes/spanend"
	"dynspread/internal/analysis/passes/wiretag"
)

func main() {
	analysis.Main(
		hotpath.Analyzer,
		registryname.Analyzer,
		spanend.Analyzer,
		wiretag.Analyzer,
		metricname.Analyzer,
	)
}
