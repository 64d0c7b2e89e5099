// Package fixture is the reach guards' test module: every case a guard
// classifies is planted once in internal/lib, and TestReachFixture asserts
// that each guard reports exactly the planted findings.
package fixture

import (
	"io"

	"fixture/internal/lib"
)

type (
	// Public is public API: its exported fields count as read.
	Public = lib.Aliased
	// Options is an alias too, which does not exempt an option.
	Options = lib.FacadeConfig
)

// Run is an exported root function, so a root of the walk.
func Run(w io.Writer) error { return lib.Main(w) }
