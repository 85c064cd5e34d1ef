package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"atomio"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: the summary the last output line carries,
// plus details for the result file and the comparator.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are human-readable qualifiers of the metrics: sample counts,
	// the tail percentile, failures.
	Notes []string `json:"notes,omitempty"`
	// Detail carries the numbers the comparator needs beyond the metrics.
	Detail map[string]float64 `json:"detail,omitempty"`
	// profile is the traced run's CPU profile (runtime/pprof format).
	profile []byte
}

// tally counts checked cells and keeps the first few failures.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) check(pins map[string]pin, c cell, r atomio.CellResult, fleet bool) {
	t.attempted++
	if err := checkCell(pins, c, r, fleet); err != nil {
		t.fail(fmt.Sprintf("cell %s: %v", c.ID, err))
	}
}

func (t *tally) fail(note string) {
	t.failed++
	if len(t.notes) < 5 {
		t.notes = append(t.notes, "FAIL "+note)
	}
}

// gate applies atomio.FleetGate to a whole fleet pass. A pass whose cells
// all passed their own checks can still fail the gate as a whole (no torn
// cell); that counts as one more failed cell.
func (t *tally) gate(results []atomio.CellResult, failedBefore int) {
	if err := atomio.FleetGate(results); err != nil && t.failed == failedBefore {
		t.fail(err.Error())
	}
}

// prepared is a workload ready to measure.
type prepared struct {
	*workload
	pins map[string]pin
}

// prepare loads a workload's pins and runs its warm-up cell, checking its
// output.
func prepare(w *workload, t *tally) (*prepared, error) {
	pins, err := loadPins(w.name)
	if err != nil {
		return nil, err
	}
	r, _ := runCell(w.warm.Cell)
	if err := checkCell(pins, w.warm, r, w.fleet); err != nil {
		t.fail(fmt.Sprintf("warm-up cell %s: %v", w.warm.ID, err))
	}
	return &prepared{workload: w, pins: pins}, nil
}

// An untraced run sets up at least setupMinReps times, and again until
// setupMinSeconds have passed (at most setupMaxReps times); setup_s is the
// median. Cheap set-ups repeat many times, so their median is steady.
const (
	setupMinReps    = 3
	setupMaxReps    = 50
	setupMinSeconds = 1.0
)

// setUpFunc prepares a workload, recording a failing warm-up cell in t.
type setUpFunc func(t *tally) (*prepared, error)

// named returns the set-up of a named workload: it builds the workload
// from the seed and prepares it.
func named(name string, seed uint64) setUpFunc {
	return func(t *tally) (*prepared, error) {
		w, err := newWorkload(name, seed)
		if err != nil {
			return nil, err
		}
		return prepare(w, t)
	}
}

// untracedRun measures a workload's end-to-end metrics: it sets up
// several times, then runs whole passes, one cell at a time, until
// seconds have elapsed (at least one pass).
func untracedRun(setup setUpFunc, seconds float64) (*report, error) {
	var t tally
	var p *prepared
	var setups, setupsWall []float64
	for setupStart := time.Now(); len(setups) < setupMinReps ||
		(len(setups) < setupMaxReps && time.Since(setupStart).Seconds() < setupMinSeconds); {
		runtime.GC()
		start := now()
		var err error
		if p, err = setup(&t); err != nil {
			return nil, err
		}
		c := start.since()
		setups = append(setups, c.cpu.Seconds())
		setupsWall = append(setupsWall, c.wall.Seconds())
	}

	gc := newCollector()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var cellMs, cellWallMs, passS, passWallS []float64
	var events int64
	var cellSec float64
	start := time.Now()
	for {
		var pass cost
		var results []atomio.CellResult
		failedBefore := t.failed
		for _, c := range p.pass {
			gc.beforeCell()
			r, d := runCell(c.Cell)
			pass.cpu += d.cpu
			pass.wall += d.wall
			cellMs = append(cellMs, float64(d.cpu.Nanoseconds())/1e6)
			cellWallMs = append(cellWallMs, float64(d.wall.Nanoseconds())/1e6)
			cellSec += d.cpu.Seconds()
			events += p.pins[c.key].events
			t.check(p.pins, c, r, p.fleet)
			if p.fleet {
				results = append(results, r)
			}
		}
		if p.fleet {
			t.gate(results, failedBefore)
		}
		passS = append(passS, pass.cpu.Seconds())
		passWallS = append(passWallS, pass.wall.Seconds())
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	runtime.ReadMemStats(&after)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	n := float64(len(cellMs))
	rep := &report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"host_s":            {median(passS), "s"},
			"cell_p50_ms":       {median(cellMs), "ms"},
			"alloc_mb_per_cell": {float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / n, "MB"},
			"allocs_per_cell":   {float64(after.Mallocs-before.Mallocs) / n, "count"},
			"peak_rss_mb":       {rss, "MB"},
			"sim_events_per_s":  {float64(events) / cellSec, "1/s"},
			"setup_s":           {median(setups), "s"},
			"ok_ratio":          {float64(t.attempted-t.failed) / float64(t.attempted), "ratio"},
		},
		Notes: append([]string{
			fmt.Sprintf("cell samples %d over %d passes of %d cells", len(cellMs), len(passS), len(p.pass)),
		}, t.notes...),
		Detail: map[string]float64{
			"samples": n, "passes": float64(len(passS)), "pass_cells": float64(len(p.pass)), "setup_reps": float64(len(setups)),
			"wall_pass_s": median(passWallS), "wall_cell_p50_ms": median(cellWallMs), "wall_setup_s": median(setupsWall),
		},
	}
	// The tail percentile is chosen from the sample count of one pass, the
	// least any run has, so a workload reports the same percentile on
	// every run and every commit. Without enough samples for a tail the
	// median stands in for it.
	if pct, ok := tailPercentile(len(p.pass)); ok {
		tail, beyond := percentile(cellMs, pct)
		rep.Metrics["cell_tail_ms"] = metric{tail, "ms"}
		rep.Detail["tail_percentile"] = pct
		rep.Detail["tail_beyond"] = float64(beyond)
		rep.Notes = append(rep.Notes, fmt.Sprintf("cell_tail_ms is p%g with %d samples beyond it", pct, beyond))
	} else {
		rep.Metrics["cell_tail_ms"] = rep.Metrics["cell_p50_ms"]
		rep.Detail["tail_percentile"] = 50
		rep.Notes = append(rep.Notes, fmt.Sprintf("cell_tail_ms is the median: a pass has %d cells, too few for a tail", len(p.pass)))
	}
	return rep, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
