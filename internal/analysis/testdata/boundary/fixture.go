// Package fixture exercises boundary. Loaded under "fixture/core", so it
// is a serving package, as the real internal/core is.
package fixture

import (
	rtrace "runtime/trace" // a standard package that shares a name with internal/trace

	"firmament/internal/flow"  // serving imports serving
	"firmament/internal/trace" // want `serving package imports reproduction-only firmament/internal/trace`
)

var (
	_ = rtrace.IsEnabled
	_ = flow.InvalidNode
	_ = trace.Generate
)
