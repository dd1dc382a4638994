package core

import (
	"fmt"
	"io"
	"strings"

	"tpsta/internal/sim"
)

// WritePathReport prints a per-gate breakdown of one reported path for
// the given launch edge, in the style of a commercial timing report:
// each traversed gate with its cell, entry pin, sensitization vector,
// output load, incremental delay and cumulative arrival. An engine
// without a technology has no electrical loads; their column shows "-".
func (e *Engine) WritePathReport(w io.Writer, p *TruePath, rising bool) error {
	if rising && !p.RiseOK || !rising && !p.FallOK {
		return fmt.Errorf("core: path is not true for the requested edge")
	}
	delays, err := e.ArcDelaysInto(e.scratch, p.Arcs, rising)
	if err != nil {
		return err
	}
	e.scratch = delays // keep the grown buffer for the next report
	edge := "fall"
	if rising {
		edge = "rise"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Path: %s (launch %s at %s)\n", p.CourseKey(), edge, p.Start)
	fmt.Fprintf(&b, "%-12s %-8s %-4s %-18s %6s %10s %10s %6s\n",
		"point", "cell", "pin", "vector", "edge", "incr(ps)", "arrive(ps)", "load(fF)")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 86))
	fmt.Fprintf(&b, "%-12s %-8s %-4s %-18s %6s %10s %10.2f %6s\n",
		p.Start, "(input)", "", "", edgeArrow(rising), "0.00", 0.0, "")
	cum := 0.0
	cur := rising
	for i, a := range p.Arcs {
		outRising, _ := a.Gate.Cell.OutputEdge(a.Vec, cur)
		cum += delays[i]
		loadfF := "-"
		if e.Tech != nil {
			loadfF = fmt.Sprintf("%6.2f", e.load(a.Gate)*1e15)
		}
		fmt.Fprintf(&b, "%-12s %-8s %-4s %-18s %6s %10.2f %10.2f %6s\n",
			a.Gate.Out.Name, a.Gate.Cell.Name, a.Pin, a.Vec.Key(),
			edgeArrow(outRising), delays[i]*1e12, cum*1e12, loadfF)
		cur = outRising
	}
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 86))
	fmt.Fprintf(&b, "data arrival time %38.2f ps\n", cum*1e12)
	if len(p.Cube) > 0 {
		fmt.Fprintf(&b, "input cube: %s\n", cubeLine(p))
	}
	_, err = io.WriteString(w, b.String())
	return err
}

func edgeArrow(rising bool) string {
	if rising {
		return "↑"
	}
	return "↓"
}

// sortedCubeNames returns the cube's input names in ascending order —
// the deterministic iteration shared by the report line and the lazy
// variant sort key.
func sortedCubeNames(cube sim.InputCube) []string {
	names := make([]string, 0, len(cube))
	for n := range cube {
		names = append(names, n)
	}
	// insertion sort (tiny n, avoids importing sort for one call)
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

func cubeLine(p *TruePath) string {
	names := sortedCubeNames(p.Cube)
	parts := make([]string, 0, len(names)+1)
	parts = append(parts, p.Start+"=T")
	for _, n := range names {
		parts = append(parts, n+"="+p.Cube[n].String())
	}
	return strings.Join(parts, " ")
}
