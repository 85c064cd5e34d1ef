package main

import (
	"slices"
	"strings"
	"testing"

	"atomio"
)

// subset returns a workload over the canonical cells keep selects, with
// the first canonical cell as warm-up.
func subset(t *testing.T, name string, keep func(i int, c cell) bool) *workload {
	t.Helper()
	all, err := canonicalCells(name)
	if err != nil {
		t.Fatal(err)
	}
	w := &workload{name: name, warm: all[0], fleet: name == wlFleet}
	for i, c := range all {
		if keep(i, c) {
			w.pass = append(w.pass, c)
		}
	}
	return w
}

// fig8Small is the 32 MB column of the Figure 8 grid.
func fig8Small(t *testing.T) *workload {
	return subset(t, wlFig8, func(_ int, c cell) bool { return strings.Contains(c.ID, "/32 MB/") })
}

// fleetSmall is the first n pool cells, negative control included.
func fleetSmall(t *testing.T, n int) *workload {
	return subset(t, wlFleet, func(i int, _ cell) bool { return i < n })
}

func setUpOf(w *workload) setUpFunc {
	return func(t *tally) (*prepared, error) { return prepare(w, t) }
}

func TestDigestsRepeatAcrossRunsAndWorkers(t *testing.T) {
	for _, w := range []*workload{fig8Small(t), fleetSmall(t, 60)} {
		pins, err := loadPins(w.name)
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]atomio.Cell, len(w.pass))
		for i, c := range w.pass {
			cells[i] = c.Cell
		}
		var runs [][]string
		for _, workers := range []int{1, 1, 2} {
			var ds []string
			for i, r := range atomio.RunGrid(cells, atomio.RunOptions{Workers: workers}) {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Cell.ID, r.Err)
				}
				ds = append(ds, digest(r))
				if want := pins[w.pass[i].key].digest; ds[i] != want {
					t.Errorf("%s workers=%d: digest %s, pinned %s", r.Cell.ID, workers, ds[i], want)
				}
			}
			runs = append(runs, ds)
		}
		if !slices.Equal(runs[0], runs[1]) || !slices.Equal(runs[0], runs[2]) {
			t.Errorf("%s: digests differ between runs or worker counts", w.name)
		}
	}
}

func TestPerturbedDigestCountsAsFailure(t *testing.T) {
	w := fleetSmall(t, 20)
	perturbed := w.pass[5].key
	setup := func(tl *tally) (*prepared, error) {
		p, err := prepare(w, tl)
		if err != nil {
			return nil, err
		}
		pn := p.pins[perturbed]
		pn.digest = strings.Repeat("0", len(pn.digest))
		p.pins[perturbed] = pn
		return p, nil
	}
	for _, tc := range []struct {
		setup  setUpFunc
		failed int
	}{{setUpOf(w), 0}, {setup, 1}} {
		rep, err := untracedRun(tc.setup, 0)
		if err != nil {
			t.Fatal(err)
		}
		okRatio := float64(len(w.pass)-tc.failed) / float64(len(w.pass))
		if rep.Attempted != len(w.pass) || rep.Failed != tc.failed || rep.Correct != (tc.failed == 0) ||
			rep.Metrics["ok_ratio"].Value != okRatio {
			t.Errorf("attempted %d failed %d correct %v ok_ratio %v; want %d %d %v %v",
				rep.Attempted, rep.Failed, rep.Correct, rep.Metrics["ok_ratio"].Value,
				len(w.pass), tc.failed, tc.failed == 0, okRatio)
		}
	}
}

func TestSeedChangesFleetNotFig8(t *testing.T) {
	keys := func(name string, seed uint64) []string {
		w, err := newWorkload(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		var ks []string
		for _, c := range w.pass {
			ks = append(ks, c.key)
		}
		return ks
	}
	f1, f2 := keys(wlFleet, 1), keys(wlFleet, 2)
	if len(f1) != fleetCells || len(f2) != fleetCells {
		t.Fatalf("fleet passes have %d and %d cells, want %d", len(f1), len(f2), fleetCells)
	}
	if !slices.Contains(f1, "0") || !slices.Contains(f2, "0") {
		t.Error("a fleet pass lacks the negative control")
	}
	if slices.Equal(slices.Sorted(slices.Values(f1)), slices.Sorted(slices.Values(f2))) {
		t.Error("seeds 1 and 2 draw the same fleet")
	}
	if !slices.Equal(f1, keys(wlFleet, 1)) {
		t.Error("seed 1 draws two different fleets")
	}

	// fig8 runs the same cells, so the same pinned digests, in another order.
	g1, g2 := keys(wlFig8, 1), keys(wlFig8, 2)
	if slices.Equal(g1, g2) {
		t.Error("seeds 1 and 2 run fig8 in the same order")
	}
	pins, err := loadPins(wlFig8)
	if err != nil {
		t.Fatal(err)
	}
	digests := func(ks []string) []string {
		var ds []string
		for _, k := range ks {
			ds = append(ds, pins[k].digest)
		}
		return slices.Sorted(slices.Values(ds))
	}
	if len(g1) != len(pins) || !slices.Equal(digests(g1), digests(g2)) {
		t.Error("the seed changes the set of fig8 digests")
	}
}

func TestTracedCountsRepeat(t *testing.T) {
	exact := []string{
		"mpi.msgs", "mpi.bytes", "lock.requests", "lock.wait_p50_vns", "lock.wait_p99_vns",
		"pfs.requests", "pfs.qdepth_max", "sched.parks", "pfs.wal_appends", "pfs.wal_replays",
		"events", "datatype.extents", "fileview.mappings",
	}
	ibm := subset(t, wlFig8, func(_ int, c cell) bool { return strings.HasPrefix(c.ID, "IBM SP/32 MB/") })
	for _, w := range []*workload{ibm, fleetSmall(t, 30)} {
		pins, err := loadPins(w.name)
		if err != nil {
			t.Fatal(err)
		}
		var pinned int64
		for _, c := range w.pass {
			pinned += pins[c.key].events
		}
		a, err := tracedRun(setUpOf(w), 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tracedRun(setUpOf(w), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Correct || !b.Correct {
			t.Fatalf("%s: traced runs failed: %v %v", w.name, a.Notes, b.Notes)
		}
		for _, k := range exact {
			if a.Metrics[k] != b.Metrics[k] {
				t.Errorf("%s %s: %v then %v", w.name, k, a.Metrics[k].Value, b.Metrics[k].Value)
			}
		}
		if got := a.Metrics["events"].Value; got != float64(pinned) {
			t.Errorf("%s: %v events, pinned %d", w.name, got, pinned)
		}
		if a.Metrics["lock.requests"].Value == 0 {
			t.Errorf("%s: no lock requests counted", w.name)
		}
	}
}
