package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"tpsta/sta"
)

// goldenJSON holds the expected results, written by -write-golden from
// a serial (Workers=1) run. Normal runs search at GOMAXPROCS workers, so
// matching it checks worker-count invariance at run time.
//
//go:embed golden.json
var goldenJSON []byte

type golden struct {
	Tech string `json:"tech"`
	Grid string `json:"grid"`
	// Workloads maps workload → circuit → expected result.
	Workloads map[string]map[string]expect `json:"workloads"`
}

// expect is one circuit's expected result. Every search must complete
// and find the same number of paths with the worst delay within
// worstTolerance; an enumeration must also reproduce the path set
// exactly (Digest).
type expect struct {
	Paths   int     `json:"paths"`
	WorstPs float64 `json:"worst_ps"`
	Digest  string  `json:"digest,omitempty"`
	// VerifyFailures lists the identities of the paths sim.Verify
	// rejected when the golden was written. Runs re-verify all of them,
	// so a fix shows up as a drop in verify.fail_frac.
	VerifyFailures []string `json:"verify_failures,omitempty"`
}

const worstTolerance = 0.005

// knownFailures returns the set of VerifyFailures.
func (e expect) knownFailures() map[string]bool {
	known := map[string]bool{}
	for _, k := range e.VerifyFailures {
		known[k] = true
	}
	return known
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Tech != techName || g.Grid != "quick" {
		return nil, fmt.Errorf("golden.json is for %s/%s, the benchmark runs %s/quick", g.Tech, g.Grid, techName)
	}
	return &g, nil
}

// pathKey is a path's identity: launch input, node sequence, the
// sensitization-vector case of every arc, the justified cube and the
// true launch edges. Delays are not part of it.
func pathKey(p *sta.TruePath) string {
	var b strings.Builder
	b.WriteString(p.Start)
	b.WriteByte('|')
	b.WriteString(strings.Join(p.Nodes, ","))
	b.WriteByte('|')
	for i, a := range p.Arcs {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(a.Vec.Case))
	}
	b.WriteByte('|')
	names := make([]string, 0, len(p.Cube))
	for n := range p.Cube {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(p.Cube[n].String())
		b.WriteByte(' ')
	}
	b.WriteByte('|')
	if p.RiseOK {
		b.WriteByte('R')
	}
	if p.FallOK {
		b.WriteByte('F')
	}
	return b.String()
}

// digest hashes the sorted identities of every path in res.
func digest(res *sta.Result) string {
	keys := make([]string, len(res.Paths))
	for i, p := range res.Paths {
		keys[i] = pathKey(p)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		io.WriteString(h, k)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// check compares one search result with its expectation.
func check(res *sta.Result, exp expect) error {
	if res.Truncated {
		return fmt.Errorf("truncated (%s) after %d steps", res.Truncation, res.Steps)
	}
	if len(res.Paths) != exp.Paths {
		return fmt.Errorf("%d paths, golden %d", len(res.Paths), exp.Paths)
	}
	if d := digest(res); exp.Digest != "" && d != exp.Digest {
		return fmt.Errorf("path digest %s, golden %s", d, exp.Digest)
	}
	if worst := res.Paths[0].WorstDelay() * 1e12; math.Abs(worst-exp.WorstPs) > worstTolerance*exp.WorstPs {
		return fmt.Errorf("worst delay %.3fps, golden %.3fps", worst, exp.WorstPs)
	}
	return nil
}

// verifyPath checks every launch edge the path claims with the
// functional simulator.
func verifyPath(c *sta.Circuit, p *sta.TruePath) error {
	for _, rising := range []bool{true, false} {
		if (rising && !p.RiseOK) || (!rising && !p.FallOK) {
			continue
		}
		if err := sta.VerifyPath(c, p.Nodes, p.Start, rising, p.Cube); err != nil {
			return err
		}
	}
	return nil
}

// verifySet picks the paths a run verifies: every path of a small
// result; otherwise a seeded sample of verifyQuota paths plus every
// path that failed when the golden was written.
func (r *runner) verifySet(res *sta.Result, exp expect) []*sta.TruePath {
	if len(res.Paths) <= verifyQuota {
		return res.Paths
	}
	known := exp.knownFailures()
	var set, pool []*sta.TruePath
	for _, p := range res.Paths {
		if known[pathKey(p)] {
			set = append(set, p)
		} else {
			pool = append(pool, p)
		}
	}
	for _, i := range r.rng.Perm(len(pool))[:min(verifyQuota, len(pool))] {
		set = append(set, pool[i])
	}
	return set
}

// writeGolden runs every workload's searches serially and writes the
// expectations to path.
func writeGolden(path string, log io.Writer) error {
	g := golden{Tech: techName, Grid: "quick", Workloads: map[string]map[string]expect{}}
	var lib *sta.Library
	for _, w := range workloads {
		r, err := newRunner(w, 1, nil, log)
		if err != nil {
			return err
		}
		if lib == nil {
			if lib, _, err = r.characterize(0, nil); err != nil {
				return err
			}
		}
		g.Workloads[w.name] = map[string]expect{}
		for _, c := range w.circuits {
			cir, err := r.load(c)
			if err != nil {
				return err
			}
			res, err := w.search(sta.NewEngine(cir, r.tc, lib, w.options(1)))
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.name, c, err)
			}
			if len(res.Paths) == 0 {
				return fmt.Errorf("%s/%s: no paths", w.name, c)
			}
			exp := expect{Paths: len(res.Paths), WorstPs: res.Paths[0].WorstDelay() * 1e12}
			if w.enumerate {
				exp.Digest = digest(res)
			}
			if err := check(res, exp); err != nil {
				return fmt.Errorf("%s/%s: %w", w.name, c, err)
			}
			for _, p := range res.Paths {
				if err := verifyPath(cir, p); err != nil {
					exp.VerifyFailures = append(exp.VerifyFailures, pathKey(p))
					fmt.Fprintf(log, "verify: %s/%s: %s: %v\n", w.name, c, p, err)
				}
			}
			sort.Strings(exp.VerifyFailures)
			g.Workloads[w.name][c] = exp
			fmt.Fprintf(log, "%s/%s: %d paths, %d steps, %d verify failures\n",
				w.name, c, len(res.Paths), res.Steps, len(exp.VerifyFailures))
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
