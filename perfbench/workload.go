package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"

	"atomio"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlFig8  = "fig8"
	wlLock  = "lock-p2048"
	wlFleet = "fleet"
)

var workloadNames = []string{wlFig8, wlLock, wlFleet}

// The fleet workload draws fleetCells cells from a pinned pool of
// fleetPoolCells cells generated by atomio.Fleet(fleetPoolSeed, ...). The
// pool is fixed so every cell a seed can draw has a pinned digest; the
// workload seed picks which cells run and in what order.
const (
	fleetPoolSeed  = 1
	fleetPoolCells = 4000
	fleetCells     = 2000
)

// cell is one simulation of a workload pass, keyed to its pinned output.
type cell struct {
	// key names the cell in the pin table: the cell ID for fig8 and
	// lock-p2048, the pool index for fleet (fleet IDs need not be unique).
	key string
	atomio.Cell
}

// workload is one benchmark input: the cells of one pass, in the order the
// seed chose, and the fixed cell run untimed during set-up.
type workload struct {
	name string
	pass []cell
	warm cell
	// fleet marks the failure-injection fleet, whose passes must also
	// satisfy atomio.FleetGate.
	fleet bool
}

// canonicalCells returns a workload's cells in their canonical order: the
// Figure 8 grid as figure8 runs it, the first extended-scaling locking
// cell, or the whole fleet pool.
func canonicalCells(name string) ([]cell, error) {
	switch name {
	case wlFig8:
		cs, err := atomio.Figure8().Cells()
		if err != nil {
			return nil, err
		}
		out := make([]cell, len(cs))
		for i, c := range cs {
			out[i] = cell{key: c.ID, Cell: c}
		}
		return out, nil
	case wlLock:
		for _, c := range atomio.ScalingTo(2048) {
			if c.Experiment.Procs == 2048 {
				return []cell{{key: c.ID, Cell: c}}, nil
			}
		}
		return nil, fmt.Errorf("no P=2048 cell in the scaling grid")
	case wlFleet:
		cs := atomio.Fleet(fleetPoolSeed, fleetPoolCells)
		out := make([]cell, len(cs))
		for i, c := range cs {
			out[i] = cell{key: strconv.Itoa(i), Cell: c}
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// newWorkload builds a workload's pass from the seed. fig8 runs every grid
// cell in a seed-permuted order; lock-p2048 is one cell, so the seed does
// not change it; fleet keeps the pool's negative control (pool cell 0,
// torn by construction, which FleetGate requires) and draws the other
// fleetCells-1 cells from the rest of the pool, in a seed-permuted order.
// The warm-up cell is the first canonical cell whatever the seed, so the
// set-up cost does not depend on the seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	all, err := canonicalCells(name)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x7065726662656e63))
	w := &workload{name: name, warm: all[0], fleet: name == wlFleet}
	if w.fleet {
		w.pass = append([]cell{all[0]}, drawFleet(rng, all[1:], fleetCells-1)...)
	} else {
		w.pass = append([]cell(nil), all...)
	}
	rng.Shuffle(len(w.pass), func(i, j int) { w.pass[i], w.pass[j] = w.pass[j], w.pass[i] })
	return w, nil
}

// drawFleet draws n of the pool's cells. Cells of one platform, strategy,
// process count, array shape, pattern and recovery setting cost about the
// same host time, and the pool's costs are bimodal in the process count,
// so a plain random draw would move the median cell with the seed. The
// draw is stratified: it takes the same share of every such stratum and
// fills the rest at random.
func drawFleet(rng *rand.Rand, pool []cell, n int) []cell {
	strata := make(map[string][]cell)
	var keys []string
	for _, c := range pool {
		e := c.Experiment
		k := fmt.Sprintf("%s/%s/P%d/%dx%d/%v/%v", e.Platform.Name, e.Strategy.Name(), e.Procs, e.M, e.N, e.Pattern, e.Recovery)
		if _, ok := strata[k]; !ok {
			keys = append(keys, k)
		}
		strata[k] = append(strata[k], c)
	}
	slices.Sort(keys)
	var out, rest []cell
	for _, k := range keys {
		s := strata[k]
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		take := len(s) * n / len(pool)
		out = append(out, s[:take]...)
		rest = append(rest, s[take:]...)
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return append(out, rest[:n-len(out)]...)
}
