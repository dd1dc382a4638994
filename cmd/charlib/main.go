// Command charlib characterizes the standard-cell library against the
// switch-level electrical simulator and writes the result as JSON: the
// paper's "one-time library parameter extraction process". The output
// contains both the polynomial models (per sensitization vector) and the
// baseline NLDM-style LUT tables (default vector only).
//
// Usage:
//
//	charlib -tech 130nm -out lib130.json
//	charlib -tech 65nm -grid full -target 0.01 -out lib65.json
package main

import (
	"flag"
	"fmt"
	"os"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/liberty"
	"tpsta/internal/obs"
	"tpsta/internal/tech"
)

func main() {
	var (
		techName    = flag.String("tech", "130nm", "technology: 130nm, 90nm or 65nm")
		outFile     = flag.String("out", "", "output JSON file (default: lib<tech>.json)")
		gridName    = flag.String("grid", "nominal", "sweep grid: nominal, full or test")
		target      = flag.Float64("target", 0.02, "polynomial fit error target")
		maxOrder    = flag.Int("max-order", 4, "polynomial per-variable order cap")
		workers     = flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
		libertyFile = flag.String("liberty", "", "additionally export the NLDM view as a Liberty .lib file")
	)
	flag.Parse()
	if err := run(*techName, *outFile, *gridName, *target, *maxOrder, *workers, *libertyFile); err != nil {
		fmt.Fprintln(os.Stderr, "charlib:", err)
		os.Exit(1)
	}
}

func run(techName, outFile, gridName string, target float64, maxOrder, workers int, libertyFile string) error {
	tc, err := tech.ByName(techName)
	if err != nil {
		return err
	}
	var grid charlib.Grid
	switch gridName {
	case "nominal":
		grid = charlib.NominalGrid()
	case "full":
		grid = charlib.FullGrid()
	case "test":
		grid = charlib.TestGrid()
	default:
		return fmt.Errorf("unknown grid %q", gridName)
	}
	if outFile == "" {
		outFile = "lib" + techName + ".json"
	}
	fmt.Printf("characterizing %s on the %s grid (%d×%d×%d×%d points per arc)...\n",
		techName, gridName, len(grid.Fo), len(grid.Tin), len(grid.Temp), len(grid.VDDRel))
	phases := &obs.Phases{}
	stopChar := phases.Start("characterize")
	lib, err := charlib.Characterize(tc, cell.Default(), grid, charlib.Options{
		Target:   target,
		MaxOrder: maxOrder,
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	d := stopChar()
	key, worst := lib.WorstFitErr()
	fmt.Printf("%s in %.1fs; worst delay fit %.2f%% at %s\n",
		lib, d.Seconds(), worst*100, key)
	fmt.Printf("sweep: %d workers at %.0f%% utilization, %.1fs sim + %.1fs fit (%d solves), slowest arc %s (%.2fs)\n",
		lib.Stats.Workers, lib.Stats.Utilization*100, lib.Stats.SimSeconds, lib.Stats.FitSeconds,
		lib.Stats.FitSolves, lib.Stats.SlowestArc, lib.Stats.SlowestArcSeconds)
	fmt.Printf("operating points: %d stopped at the DC solver's iteration cap without converging\n",
		lib.Stats.CappedOperatingPoints)

	f, err := os.Create(outFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := lib.Save(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outFile)

	if libertyFile != "" {
		lf, err := os.Create(libertyFile)
		if err != nil {
			return err
		}
		defer lf.Close()
		if err := liberty.Write(lf, lib, cell.Default()); err != nil {
			return err
		}
		fmt.Printf("wrote %s (NLDM view; per-vector polynomial models are JSON-only)\n", libertyFile)
	}
	return nil
}
