// Package variation names the operating corners of a multi-corner
// sweep. The polynomial delay model carries temperature and supply as
// variables (the paper's equation (3)), so a corner needs no new
// characterization, only a search at another point:
// core.Engine.MultiCorner runs one at every corner, and finds paths
// that only become critical at one of them. Parameter variation is the
// paper's Section V.A future work.
package variation

import (
	"tpsta/internal/core"
	"tpsta/internal/tech"
)

// Corner is one environmental operating point.
type Corner struct {
	Name string
	// Temp in °C; VDDRel is the supply as a fraction of nominal.
	Temp   float64
	VDDRel float64
}

// StandardCorners returns the classic slow/typical/fast trio.
func StandardCorners() []Corner {
	return []Corner{
		{"slow (125°C, 0.9·VDD)", 125, 0.9},
		{"typical (25°C, VDD)", 25, 1.0},
		{"fast (-40°C, 1.1·VDD)", -40, 1.1},
	}
}

// Points resolves corners against a technology's nominal supply into
// the engine's absolute operating points, ready for
// core.Engine.MultiCorner. Corner names pass through unchanged.
func Points(tc *tech.Tech, corners []Corner) []core.OperatingPoint {
	pts := make([]core.OperatingPoint, len(corners))
	for i, c := range corners {
		pts[i] = core.OperatingPoint{Name: c.Name, Temp: c.Temp, VDD: c.VDDRel * tc.VDD}
	}
	return pts
}
