package atomio

import (
	"reflect"
	"testing"

	"atomio/internal/sim"
)

// withEngine returns cells with every experiment set to run under eng; a
// nil engine keeps the event-loop default.
func withEngine(cells []Cell, eng sim.Engine) []Cell {
	out := append([]Cell(nil), cells...)
	for i := range out {
		out[i].Experiment.Engine = eng
	}
	return out
}

// runFigure8Under runs the full Figure 8 grid under eng and returns its
// records with wall_ns, the only host-dependent column, cleared.
func runFigure8Under(t *testing.T, eng sim.Engine) []Record {
	t.Helper()
	cells, err := Figure8().Cells()
	if err != nil {
		t.Fatal(err)
	}
	results := RunGrid(withEngine(cells, eng), RunOptions{Workers: 4})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	recs := Records(results)
	for i := range recs {
		recs[i].WallNS = 0
	}
	return recs
}

// TestFigure8GridByteIdenticalAcrossEngines asserts the tentpole contract on
// the paper's full evaluation: every record of the Figure 8 grid — makespan,
// bandwidth, written volume, per-server stats — is identical under the
// event-loop engine and the goroutine oracle.
func TestFigure8GridByteIdenticalAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 8 grid under both engines; cross-engine smoke lives in internal/harness")
	}
	oracle := runFigure8Under(t, sim.Goroutines{})
	loop := runFigure8Under(t, nil)
	if len(oracle) != len(loop) {
		t.Fatalf("record counts diverge: goroutine %d, eventloop %d", len(oracle), len(loop))
	}
	for i := range oracle {
		if !reflect.DeepEqual(oracle[i], loop[i]) {
			t.Errorf("cell %s diverges\n goroutine %+v\n eventloop %+v", oracle[i].ID, oracle[i], loop[i])
		}
	}
}

// TestFleetByteIdenticalAcrossEngines runs the seed-1, 200-cell fault
// fleet (the figure8 -fleet default) under the event-loop engine and the
// goroutine oracle: every cell must reach the same verdict, replay the same
// ranks and end at the same makespan, and both runs must pass the fleet
// gate. Fault decisions are pure functions of virtual time, so nothing may
// depend on the engine.
func TestFleetByteIdenticalAcrossEngines(t *testing.T) {
	cells := Fleet(1, 200)
	loop := RunGrid(cells, RunOptions{Workers: 2})
	oracle := RunGrid(withEngine(cells, sim.Goroutines{}), RunOptions{Workers: 2})
	for name, results := range map[string][]CellResult{"eventloop": loop, "goroutine": oracle} {
		if err := FirstErr(results); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := FleetGate(results); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for i := range cells {
		l, o := loop[i].Result, oracle[i].Result
		if l.Verdict != o.Verdict || !reflect.DeepEqual(l.Replayed, o.Replayed) || l.Makespan != o.Makespan {
			t.Errorf("cell %d %s diverges\n eventloop %s replayed %v makespan %v\n goroutine %s replayed %v makespan %v",
				i, cells[i].ID, l.Verdict, l.Replayed, l.Makespan, o.Verdict, o.Replayed, o.Makespan)
		}
	}
}
