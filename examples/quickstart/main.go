// Quickstart: characterize a technology, load a bundled circuit and print
// its worst true paths with their sensitization vectors.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tpsta/sta"
)

func main() {
	tc, err := sta.TechByName("130nm")
	if err != nil {
		log.Fatal(err)
	}

	// One-time library characterization against the built-in electrical
	// simulator (use sta.NominalGrid() and SaveLibrary for production;
	// the quick grid keeps this demo fast).
	fmt.Println("characterizing 130nm library (quick grid)...")
	lib, err := sta.Characterize(tc, sta.QuickGrid())
	if err != nil {
		log.Fatal(err)
	}

	cir, err := sta.BuiltinCircuit("c17")
	if err != nil {
		log.Fatal(err)
	}
	stats, err := cir.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d inputs, %d outputs, %d gates\n\n",
		stats.Name, stats.Inputs, stats.Outputs, stats.Gates)

	// Find the 5 worst true paths in a single pass; each comes with the
	// sensitization vector of every traversed gate and the justified
	// input cube.
	eng := sta.NewEngine(cir, tc, lib, sta.EngineOptions{})
	res, err := eng.KWorst(5)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range res.Paths {
		fmt.Printf("#%d  %7.2f ps  %s\n", i+1, p.WorstDelay()*1e12, p)
		fmt.Printf("     input cube: %s=T %s\n", p.Start, p.Cube)

		// Every reported path re-verifies functionally.
		rising := p.RiseOK
		if err := sta.VerifyPath(cir, p.Nodes, p.Start, rising, p.Cube); err != nil {
			log.Fatalf("verification failed: %v", err)
		}
	}
	fmt.Println("\nall reported paths verified as true paths")
}
