package cell

import (
	"fmt"
	"strings"
	"sync"
)

// Drive-strength variants: real libraries offer each function at several
// device widths. An X2 cell doubles every transistor width — half the
// output resistance at twice the input capacitance — which is the upsizing
// move an ECO flow makes on a failing path (see netlist.ReplaceCell and
// block.Incremental).

var (
	extLib  *Lib
	extOnce sync.Once
)

// DriveSuffix marks upsized variants ("NAND2" → "NAND2_X2").
const DriveSuffix = "_X2"

// Extended returns the default library plus an X2 variant of every cell.
// Variants share the base cell's function, pins, evaluation table and
// sensitization vectors (all depend only on the function); their stages
// carry doubled width multipliers.
func Extended() *Lib {
	extOnce.Do(func() {
		base := Default()
		ext := &Lib{cells: map[string]*Cell{}}
		for _, c := range base.Cells() {
			ext.cells[c.Name] = c
			ext.names = append(ext.names, c.Name)
			x2 := upsize(c, 2, c.Name+DriveSuffix)
			ext.cells[x2.Name] = x2
			ext.names = append(ext.names, x2.Name)
		}
		sortStrings(ext.names)
		extLib = ext
	})
	return extLib
}

// BaseName strips a drive suffix ("NAND2_X2" → "NAND2").
func BaseName(name string) string { return strings.TrimSuffix(name, DriveSuffix) }

// IsUpsized reports whether the cell name carries a drive suffix.
func IsUpsized(name string) bool { return strings.HasSuffix(name, DriveSuffix) }

// upsize builds a width-scaled copy of a cell.
func upsize(c *Cell, factor float64, name string) *Cell {
	stages := make([]Stage, len(c.Stages))
	for i, st := range c.Stages {
		stages[i] = Stage{PD: st.PD, Out: st.Out, WN: st.WN * factor, WP: st.WP * factor}
	}
	x := &Cell{Name: name, Inputs: c.Inputs, Function: c.Function, Stages: stages, table: c.table}
	if err := x.checkStages(); err != nil {
		panic(fmt.Sprintf("cell: upsize(%s): %v", c.Name, err))
	}
	x.Topology()
	for _, pin := range x.Inputs {
		x.Vectors(pin)
	}
	JustifyCubes(x, false)
	JustifyCubes(x, true)
	return x
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
