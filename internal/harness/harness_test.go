package harness

import (
	"strings"
	"testing"

	"atomio/internal/core"
	"atomio/internal/obs"
	"atomio/internal/platform"
	"atomio/internal/sim"
)

func TestExperimentVerifiedSmall(t *testing.T) {
	// Every strategy on every platform produces MPI-atomic file content.
	for _, prof := range platform.All() {
		for _, strat := range Methods(prof) {
			t.Run(prof.Name+"/"+strat.Name(), func(t *testing.T) {
				res, err := Experiment{
					Platform:  prof,
					M:         64,
					N:         512,
					Procs:     4,
					Overlap:   8,
					Pattern:   ColumnWise,
					Strategy:  strat,
					StoreData: true,
					Verify:    true,
				}.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Report == nil || !res.Report.Atomic() {
					t.Fatalf("atomicity violated: %+v", res.Report)
				}
				if res.Report.Atoms == 0 {
					t.Fatal("no overlap atoms; test vacuous")
				}
				if res.BandwidthMBs <= 0 || res.Makespan <= 0 {
					t.Fatalf("degenerate result: %+v", res)
				}
			})
		}
	}
}

func TestExperimentRejectsLockingWithoutManager(t *testing.T) {
	_, err := Experiment{
		Platform: platform.Cplant(),
		M:        64, N: 512, Procs: 4, Overlap: 8,
		Strategy: core.Locking{},
	}.Run()
	if err != core.ErrNoLockManager {
		t.Fatalf("err = %v, want ErrNoLockManager", err)
	}
}

func TestExperimentPatterns(t *testing.T) {
	for _, pat := range []Pattern{ColumnWise, RowWise, BlockBlock} {
		res, err := Experiment{
			Platform: platform.Origin2000(),
			M:        64, N: 256, Procs: 4, Overlap: 4,
			Pattern:   pat,
			Strategy:  core.RankOrder{},
			StoreData: true,
			Verify:    true,
		}.Run()
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		if !res.Report.Atomic() {
			t.Fatalf("%s: violations %v", pat, res.Report.Violations)
		}
	}
	if _, err := (Experiment{
		Platform: platform.Origin2000(),
		M:        64, N: 256, Procs: 6, Overlap: 4,
		Pattern:  BlockBlock,
		Strategy: core.RankOrder{},
	}).Run(); err == nil {
		t.Fatal("block-block with non-square P should fail")
	}
}

func TestOrderingWritesFewerBytes(t *testing.T) {
	base := Experiment{
		Platform: platform.Origin2000(),
		M:        256, N: 4096, Procs: 8, Overlap: 32,
		StoreData: false,
	}
	withStrategy := func(s core.Strategy) int64 {
		e := base
		e.Strategy = s
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.WrittenBytes
	}
	coloringBytes := withStrategy(core.Coloring{})
	orderingBytes := withStrategy(core.RankOrder{})
	saved := int64((base.Procs - 1) * base.Overlap * base.M)
	if coloringBytes-orderingBytes != saved {
		t.Fatalf("ordering saved %d bytes, want %d", coloringBytes-orderingBytes, saved)
	}
}

func TestPhaseBreakdownMatchesStrategyStructure(t *testing.T) {
	// The trace must attribute time where each strategy actually spends
	// it: locking waits on locks, the handshaking strategies exchange
	// views, coloring barriers between phases, two-phase exchanges data.
	base := Experiment{
		Platform: platform.Origin2000(),
		M:        256, N: 2048, Procs: 8, Overlap: 16,
		Pattern:     ColumnWise,
		TraceEvents: true,
		EventLimit:  -1,
	}
	runWith := func(s core.Strategy) *obs.Recorder {
		e := base
		e.Strategy = s
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Events == nil {
			t.Fatal("trace missing")
		}
		return res.Events
	}
	total := func(r *obs.Recorder, p string) sim.VTime {
		return sim.VTime(r.Metrics().Counter(obs.PhaseMetric(p)))
	}
	most := func(r *obs.Recorder, p string) sim.VTime {
		var m sim.VTime
		for a := 0; a < r.Actors(); a++ {
			m = max(m, sim.VTime(r.ActorCounter(a, obs.PhaseMetric(p))))
		}
		return m
	}

	lockRes := runWith(core.Locking{})
	if total(lockRes, obs.PhaseLockWait) == 0 {
		t.Error("locking recorded no lock wait")
	}
	if total(lockRes, obs.PhaseHandshake) != 0 {
		t.Error("locking should not handshake")
	}
	// Serialized writers: aggregate lock wait exceeds aggregate transfer.
	if total(lockRes, obs.PhaseLockWait) <= total(lockRes, obs.PhaseTransfer) {
		t.Errorf("locking lockwait %v <= transfer %v",
			total(lockRes, obs.PhaseLockWait), total(lockRes, obs.PhaseTransfer))
	}

	colorRes := runWith(core.Coloring{})
	if total(colorRes, obs.PhaseHandshake) == 0 {
		t.Error("coloring recorded no handshake")
	}
	if total(colorRes, obs.PhaseSyncWait) == 0 {
		t.Error("coloring recorded no barrier wait")
	}
	if total(colorRes, obs.PhaseLockWait) != 0 {
		t.Error("coloring should not lock")
	}

	orderRes := runWith(core.RankOrder{})
	if total(orderRes, obs.PhaseHandshake) == 0 {
		t.Error("ordering recorded no handshake")
	}
	if total(orderRes, obs.PhaseSyncWait) != 0 {
		t.Error("ordering needs no barriers")
	}
	// Ordering's whole point: its non-transfer overhead is small, so
	// transfer dominates its critical path.
	if most(orderRes, obs.PhaseTransfer) <= most(orderRes, obs.PhaseHandshake) {
		t.Errorf("ordering transfer %v <= handshake %v",
			most(orderRes, obs.PhaseTransfer), most(orderRes, obs.PhaseHandshake))
	}

	twoRes := runWith(core.TwoPhase{})
	if total(twoRes, obs.PhaseExchange) == 0 {
		t.Error("two-phase recorded no exchange")
	}
	if s := twoRes.RenderPhases(); !strings.Contains(s, "exchange") {
		t.Errorf("render missing exchange:\n%s", s)
	}
}

// TestFigure8Shape pins the qualitative claims of the paper's Figure 8 on
// the smallest array (the other sizes share the cost structure; the full
// grid is exercised by cmd/figure8 and the benchmarks):
//
//  1. file locking yields the worst bandwidth of all strategies,
//  2. process-rank ordering beats graph-coloring,
//  3. the handshaking strategies scale up with P while locking stays flat
//     or declines.
func TestFigure8Shape(t *testing.T) {
	for _, prof := range platform.All() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			panel := Panel{Platform: prof, N: Figure8Sizes[0].N, Label: Figure8Sizes[0].Label}
			series, err := RunPanel(panel, false)
			if err != nil {
				t.Fatal(err)
			}
			byName := map[string]Series{}
			for _, s := range series {
				byName[s.Method] = s
			}
			coloring, ordering := byName["coloring"], byName["ordering"]
			locking, hasLocking := byName["locking"]

			if hasLocking != prof.SupportsLocking() {
				t.Fatalf("locking presence = %v, want %v", hasLocking, prof.SupportsLocking())
			}
			for _, p := range Figure8Procs {
				if ordering.ByProcs[p] < coloring.ByProcs[p] {
					t.Errorf("P=%d: ordering %.2f < coloring %.2f",
						p, ordering.ByProcs[p], coloring.ByProcs[p])
				}
				if hasLocking {
					if locking.ByProcs[p] >= coloring.ByProcs[p] {
						t.Errorf("P=%d: locking %.2f >= coloring %.2f",
							p, locking.ByProcs[p], coloring.ByProcs[p])
					}
					if locking.ByProcs[p] >= ordering.ByProcs[p] {
						t.Errorf("P=%d: locking %.2f >= ordering %.2f",
							p, locking.ByProcs[p], ordering.ByProcs[p])
					}
				}
			}
			// Handshaking strategies gain from more processes...
			if ordering.ByProcs[8] <= ordering.ByProcs[4] {
				t.Errorf("ordering does not scale: P4=%.2f P8=%.2f",
					ordering.ByProcs[4], ordering.ByProcs[8])
			}
			if coloring.ByProcs[8] <= coloring.ByProcs[4] {
				t.Errorf("coloring does not scale: P4=%.2f P8=%.2f",
					coloring.ByProcs[4], coloring.ByProcs[8])
			}
			// ...while locking is flat or declining (serialized writers).
			if hasLocking && locking.ByProcs[16] > locking.ByProcs[4]*1.1 {
				t.Errorf("locking should not scale: P4=%.2f P16=%.2f",
					locking.ByProcs[4], locking.ByProcs[16])
			}
		})
	}
}

func TestBandwidthRepeatable(t *testing.T) {
	// Virtual-time bandwidth must be stable across runs: goroutine
	// scheduling may permute queue orders, but totals are conserved, so
	// repeated experiments agree within a small tolerance.
	e := Experiment{
		Platform: platform.IBMSP(),
		M:        512, N: 8192, Procs: 8, Overlap: 32,
		Pattern:  ColumnWise,
		Strategy: core.RankOrder{},
	}
	var prev float64
	for i := 0; i < 3; i++ {
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			ratio := res.BandwidthMBs / prev
			if ratio < 0.98 || ratio > 1.02 {
				t.Fatalf("run %d bandwidth %.3f vs %.3f (ratio %.3f): not repeatable",
					i, res.BandwidthMBs, prev, ratio)
			}
		}
		prev = res.BandwidthMBs
	}
}

func TestRenderPanel(t *testing.T) {
	prof := platform.Origin2000()
	panel := Panel{Platform: prof, N: Figure8Sizes[0].N, Label: "32 MB"}
	series := []Series{{
		Method:  "ordering",
		ByProcs: map[int]float64{4: 1, 8: 2, 16: 3},
	}}
	out := RenderPanel(panel, series)
	for _, want := range []string{"Origin2000", "4096 x 8192", "32 MB", "ordering", "MB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure8PanelEnumeration(t *testing.T) {
	panels := Figure8Panels()
	if len(panels) != 9 {
		t.Fatalf("panels = %d, want 9", len(panels))
	}
	// Paper layout: sizes down, platforms across.
	if panels[0].Platform.Name != "Cplant" || panels[0].Label != "32 MB" {
		t.Fatalf("first panel = %+v", panels[0])
	}
	if panels[8].Platform.Name != "IBM SP" || panels[8].Label != "1 GB" {
		t.Fatalf("last panel = %+v", panels[8])
	}
}

func TestPatternString(t *testing.T) {
	if ColumnWise.String() != "column-wise" || RowWise.String() != "row-wise" ||
		BlockBlock.String() != "block-block" || Pattern(9).String() == "" {
		t.Fatal("pattern strings")
	}
}
