package analysis

import "strconv"

// Boundary keeps the reproduction out of the binary the service ships: no
// package that cmd/firmament-serve links may import a package that exists
// only to reproduce the paper's experiments. Those are the simulator, the
// baseline schedulers, the network and trace models, the experiments with
// their reference solvers, and the root facade that re-exports them all.
// The serving set is what `go list -deps ./cmd/firmament-serve` names
// (TestServingSetIsServeDeps pins that), and its size is the code the
// service ships.
var Boundary = &Analyzer{
	Name: "boundary",
	Doc:  "forbids the serving packages from importing reproduction-only packages",
	Run:  runBoundary,
}

// servingPkgs names the serving set by last path element, so fixtures
// loaded under "fixture/<name>" join it like the real packages.
var servingPkgs = []string{
	"firmament-serve", "api", "cluster", "core", "faultfs", "flow", "mcmf",
	"metrics", "policy", "service", "storage", "template", "wal",
}

// reproductionPkgs names the reproduction-only packages by import path.
var reproductionPkgs = map[string]bool{
	"firmament":                              true,
	"firmament/internal/baselines":           true,
	"firmament/internal/experiments":         true,
	"firmament/internal/experiments/solvers": true,
	"firmament/internal/netsim":              true,
	"firmament/internal/sim":                 true,
	"firmament/internal/trace":               true,
}

func runBoundary(pass *Pass) error {
	if !pass.pkgPathEndsIn(servingPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if reproductionPkgs[path] {
				pass.Reportf(imp.Pos(), "serving package imports reproduction-only %s", path)
			}
		}
	}
	return nil
}
