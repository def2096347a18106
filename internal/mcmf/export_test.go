package mcmf

// The differential corpus and its graph generators, shared with the
// external tests in package mcmf_test.
const DifferentialSeeds = differentialSeeds

var (
	RandomSchedulingGraph = randomSchedulingGraph
	RandomGeneralGraph    = randomGeneralGraph
	MutateSchedulingGraph = mutateSchedulingGraph
)
