package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"atomio"
	"atomio/internal/obs"
)

// pinFiles holds the pinned virtual output of every workload cell, one file
// per workload: "<digest> <events> <key>" per line, written by the pin
// subcommand from a traced run.
//
//go:embed pins/*.txt
var pinFiles embed.FS

// pin is one cell's expected virtual output.
type pin struct {
	digest string
	events int64
}

// loadPins reads a workload's pin table.
func loadPins(name string) (map[string]pin, error) {
	f, err := pinFiles.Open("pins/" + name + ".txt")
	if err != nil {
		return nil, fmt.Errorf("pins for %s: %w", name, err)
	}
	defer f.Close()
	pins := make(map[string]pin)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.SplitN(sc.Text(), " ", 3)
		if len(fields) != 3 {
			return nil, fmt.Errorf("pins for %s: malformed line %q", name, sc.Text())
		}
		ev, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pins for %s: %w", name, err)
		}
		pins[fields[2]] = pin{digest: fields[0], events: ev}
	}
	return pins, sc.Err()
}

// digest hashes a cell's virtual output: its ID, makespan, every rank's
// final virtual clock, the bytes written and the atomicity verdict.
func digest(r atomio.CellResult) string {
	h := sha256.New()
	num := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	h.Write([]byte(r.Cell.ID))
	num(int64(r.Result.Makespan))
	num(int64(len(r.Result.RankTimes)))
	for _, t := range r.Result.RankTimes {
		num(int64(t))
	}
	num(r.Result.WrittenBytes)
	h.Write([]byte(r.Result.Verdict))
	return hex.EncodeToString(h.Sum(nil)[:6])
}

// simEvents is a traced cell's simulated work: messages, lock requests,
// server bookings and scheduler parks.
func simEvents(m *atomio.TraceMetrics) int64 {
	return m.Counter(obs.MetricMsgs) + m.Counter(obs.MetricLockReqs) +
		m.Counter(obs.MetricPFSReqs) + m.Counter(obs.MetricParks)
}

// runCell runs one cell through the facade's grid runner (one worker),
// which turns a panic into the cell's error, and returns its host cost.
func runCell(c atomio.Cell) (atomio.CellResult, cost) {
	start := now()
	r := atomio.RunGrid([]atomio.Cell{c}, atomio.RunOptions{Workers: 1})[0]
	return r, start.since()
}

// checkCell reports why a cell's result fails, or nil: a run error or
// panic, a missing pin, a digest that differs from the pin, and on the
// fleet a cell the fleet gate rejects (no verdict, or torn despite
// recovery). A traced result must also repeat the pinned event count.
func checkCell(pins map[string]pin, c cell, r atomio.CellResult, fleet bool) error {
	if r.Err != nil {
		return r.Err
	}
	p, ok := pins[c.key]
	if !ok {
		return fmt.Errorf("no pinned digest")
	}
	if d := digest(r); d != p.digest {
		return fmt.Errorf("digest %s, pinned %s", d, p.digest)
	}
	if m := r.Result.Metrics; m != nil {
		if ev := simEvents(m); ev != p.events {
			return fmt.Errorf("%d events, pinned %d", ev, p.events)
		}
	}
	if fleet {
		v := r.Result.Verdict
		if v == "" {
			return fmt.Errorf("no verdict")
		}
		if c.Experiment.Recovery && v == atomio.Torn {
			return fmt.Errorf("torn despite recovery")
		}
	}
	return nil
}

// traced returns c with metrics-only event tracing on (limit < 0) or a
// per-actor event ring of limit events.
func traced(c atomio.Cell, limit int) atomio.Cell {
	c.Experiment.TraceEvents = true
	c.Experiment.EventLimit = limit
	return c
}

// writePins runs every canonical cell of each workload twice, untraced and
// metrics-traced, requires the two digests to agree, and writes the pin
// tables into dir.
func writePins(dir string, names []string) error {
	for _, name := range names {
		cells, err := canonicalCells(name)
		if err != nil {
			return err
		}
		var b strings.Builder
		for _, c := range cells {
			plain, _ := runCell(c.Cell)
			tr, _ := runCell(traced(c.Cell, -1))
			if plain.Err != nil || tr.Err != nil {
				return fmt.Errorf("%s %s: %v %v", name, c.ID, plain.Err, tr.Err)
			}
			if digest(plain) != digest(tr) {
				return fmt.Errorf("%s %s: tracing changed the virtual output", name, c.ID)
			}
			fmt.Fprintf(&b, "%s %d %s\n", digest(tr), simEvents(tr.Result.Metrics), c.key)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pinned %d cells of %s\n", len(cells), name)
	}
	return nil
}
