// Variation demonstrates the paper's announced future work: because the
// polynomial delay model already carries temperature and supply as
// variables (equation (3)), parameter variation drops in without new
// machinery. The example characterizes across T/VDD, searches the
// Fig. 4 circuit's true paths at slow/typical/fast corners in one
// MultiCorner sweep, runs a Monte Carlo with per-gate supply noise over
// the worst paths, and shows a multiple-input-switching (MIS)
// measurement with the electrical simulator — the other future-work
// item.
//
//	go run ./examples/variation
package main

import (
	"fmt"
	"log"

	"tpsta/internal/charlib"
	"tpsta/internal/spice"
	"tpsta/sta"
)

func main() {
	tc, err := sta.TechByName("130nm")
	if err != nil {
		log.Fatal(err)
	}
	// A reduced temperature/supply sweep keeps the demo fast; production
	// use would take sta.FullGrid().
	grid := sta.Grid{
		Fo:     []float64{0.5, 2, 8},
		Tin:    []float64{20e-12, 80e-12, 250e-12},
		Temp:   []float64{-40, 25, 125},
		VDDRel: []float64{0.9, 1.0, 1.1},
	}
	fmt.Println("characterizing 130nm across temperature and supply...")
	lib, err := charlib.Characterize(tc, sta.CellLibrary(), grid, charlib.Options{})
	if err != nil {
		log.Fatal(err)
	}

	cir, err := sta.BuiltinCircuit("fig4")
	if err != nil {
		log.Fatal(err)
	}
	// Each corner is a full search at its operating point, so a path
	// that only becomes critical at one corner is found there.
	eng := sta.NewEngine(cir, tc, lib, sta.EngineOptions{})
	sweep, err := eng.MultiCorner(sta.CornerPoints(tc, sta.StandardCorners()))
	if err != nil {
		log.Fatal(err)
	}
	var paths []*sta.TruePath
	fmt.Println("\nper-corner path delays (ps), worst cross-corner first:")
	fmt.Printf("%-62s %10s %10s %10s\n", "path", "slow", "typical", "fast")
	for i, cp := range sweep.Cross {
		if i == 6 {
			break
		}
		paths = append(paths, cp.Path)
		fmt.Printf("%-62s %10.1f %10.1f %10.1f\n",
			cp.Path.String(), cp.Delays[0]*1e12, cp.Delays[1]*1e12, cp.Delays[2]*1e12)
	}

	va := sta.NewVariationAnalyzer(cir, tc, lib)
	mc, err := va.MonteCarlo(paths, sta.MCOptions{Samples: 2000, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMonte Carlo (%d samples, global T/VDD + per-gate supply noise):\n", mc.Samples)
	fmt.Printf("%-62s %9s %8s %9s %11s\n", "path", "mean(ps)", "σ(ps)", "p99(ps)", "criticality")
	for _, st := range mc.Stats {
		fmt.Printf("%-62s %9.1f %8.2f %9.1f %10.1f%%\n",
			st.Path.String(), st.Mean*1e12, st.Std*1e12, st.P99*1e12, st.Criticality*100)
	}
	fmt.Printf("samples where the slowest path differs from the nominal-worst: %d/%d\n",
		mc.RankFlips, mc.Samples)

	// Multiple-input switching on a NAND2: the serial-stack push-out.
	fmt.Println("\nmultiple-input switching (electrical simulation, NAND2):")
	s := sta.NewSimulator(tc)
	nand := sta.CellLibrary().MustGet("NAND2")
	load := 2 * nand.InputCap(tc, "A")
	single, err := s.SimulateGate(nand, nand.Vectors("A")[0], true, 40e-12, load)
	if err != nil {
		log.Fatal(err)
	}
	mis, err := s.SimulateGateMIS(nand, []spice.SwitchingInput{
		{Pin: "A", Rising: true}, {Pin: "B", Rising: true},
	}, nil, 40e-12, load)
	if err != nil {
		log.Fatal(err)
	}
	inCross := 40e-12 / 0.8 / 2
	fmt.Printf("  single input switching: %6.2f ps\n", single.Delay*1e12)
	fmt.Printf("  both inputs together:   %6.2f ps (%+.1f%%)\n",
		(mis.OutputCross-inCross)*1e12,
		((mis.OutputCross-inCross)/single.Delay-1)*100)
}
