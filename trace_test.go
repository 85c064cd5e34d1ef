package atomio

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"atomio/internal/obs"
	"atomio/internal/sim"
)

// traceSpec builds the mid-size traced cell the determinism tests run:
// contended enough to exercise the lock, PFS and scheduler layers.
func traceSpec(t *testing.T, strategy string, extra ...Option) *Spec {
	t.Helper()
	opts := append([]Option{
		Platform("Origin2000"), Array(256, 2048), Procs(4), Overlap(8),
		Strategy(strategy), Trace(0),
	}, extra...)
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTraceByteIdenticalAcrossEngines asserts the tentpole determinism
// contract: the serialized atomio.trace/v1 stream of a traced cell is
// byte-identical under the event-loop engine and the goroutine oracle.
func TestTraceByteIdenticalAcrossEngines(t *testing.T) {
	for _, strategy := range []string{"locking", "coloring"} {
		t.Run(strategy, func(t *testing.T) {
			cells, err := Grid{
				Platforms:  []string{"Origin2000"},
				Sizes:      []Size{{M: 256, N: 2048}},
				Procs:      []int{4},
				Overlap:    8,
				Strategies: []string{strategy},
				Trace:      true,
			}.Cells()
			if err != nil {
				t.Fatal(err)
			}
			oracle := cells[0]
			oracle.Experiment.Engine = sim.Goroutines{}
			var traces [2][]byte
			for i, r := range RunGrid([]Cell{cells[0], oracle}, RunOptions{Workers: 1}) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				var buf bytes.Buffer
				if err := WriteTraceJSONL(&buf, r.Result.Events); err != nil {
					t.Fatal(err)
				}
				traces[i] = buf.Bytes()
			}
			if len(bytes.Split(traces[0], []byte("\n"))) < 10 {
				t.Fatal("baseline trace suspiciously small; test vacuous")
			}
			if !bytes.Equal(traces[0], traces[1]) {
				t.Error("trace diverges between the event-loop engine and the goroutine oracle")
			}
		})
	}
}

// TestTraceByteIdenticalAcrossWorkers runs a traced grid on one worker and
// on four: per-cell traces must not depend on host-side parallelism.
func TestTraceByteIdenticalAcrossWorkers(t *testing.T) {
	grid := Grid{
		Platforms:  []string{"Origin2000"},
		Sizes:      []Size{{M: 128, N: 1024, Label: "128 KB"}},
		Procs:      []int{4},
		Overlap:    8,
		Strategies: []string{"locking", "coloring", "ordering"},
		Trace:      true,
	}
	runWith := func(workers int) [][]byte {
		cells, err := grid.Cells()
		if err != nil {
			t.Fatal(err)
		}
		results := RunGrid(cells, RunOptions{Workers: workers})
		if err := FirstErr(results); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(results))
		for i, r := range results {
			var buf bytes.Buffer
			if err := WriteTraceJSONL(&buf, r.Result.Events); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}
	one, four := runWith(1), runWith(4)
	for i := range one {
		if !bytes.Equal(one[i], four[i]) {
			t.Errorf("cell %d trace diverges between 1 and 4 workers", i)
		}
	}
}

// TestPhaseTotalsPinnedToEvents pins the phase breakdown to the events it
// summarizes: every rank's phase.<p>.ns counter equals the sum of its
// phase.span durations, and because counters are exact under any event
// limit, unbounded, ring and metrics-only runs render the same table.
func TestPhaseTotalsPinnedToEvents(t *testing.T) {
	for _, strategy := range []string{"locking", "coloring", "ordering", "twophase"} {
		t.Run(strategy, func(t *testing.T) {
			s := traceSpec(t, strategy)
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			fromEvents := make(map[string]map[int]int64)
			for _, e := range res.Events.Events() {
				if e.Layer != obs.LayerPhase || e.Kind != obs.KindPhaseSpan {
					continue
				}
				if fromEvents[e.Tag] == nil {
					fromEvents[e.Tag] = make(map[int]int64)
				}
				fromEvents[e.Tag][e.Actor] += int64(e.Dur)
			}
			checked := 0
			for _, p := range []string{obs.PhaseExchange, obs.PhaseHandshake, obs.PhaseLockWait, obs.PhaseSyncWait, obs.PhaseTransfer} {
				for rank := 0; rank < s.Procs; rank++ {
					want := res.Events.ActorCounter(rank, obs.PhaseMetric(p))
					if got := fromEvents[p][rank]; got != want {
						t.Errorf("rank %d phase %s: events sum to %d, counter says %d", rank, p, got, want)
					}
					if want > 0 {
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatal("no non-zero phase totals; property test vacuous")
			}
			table := res.Events.RenderPhases()
			for _, limit := range []int{16, -1} {
				other, err := traceSpec(t, strategy, Trace(limit)).Run()
				if err != nil {
					t.Fatal(err)
				}
				if got := other.Events.RenderPhases(); got != table {
					t.Errorf("limit %d renders\n%s\nunbounded renders\n%s", limit, got, table)
				}
			}
		})
	}
}

// TestChromeTraceGolden pins the Chrome trace-event export of a small
// deterministic cell against a checked-in fixture (regenerate with
// `go test -run TestChromeTraceGolden -update .`), and spot-checks the
// format contract Perfetto relies on.
func TestChromeTraceGolden(t *testing.T) {
	res, err := Run(
		Platform("Origin2000"), Array(64, 256), Procs(2), Overlap(4),
		Strategy("coloring"), Trace(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, res.Events); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.json")
	if *updateAPI {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestChromeTraceGolden -update .`): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("Chrome trace changed; if intentional, regenerate with `go test -run TestChromeTraceGolden -update .`")
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("Chrome trace is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.TraceEvents) == 0 {
		t.Fatalf("malformed document: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" && e.Ph != "i" {
			t.Fatalf("event %q has phase %q, want X or i", e.Name, e.Ph)
		}
		if e.PID != 0 || e.TID < 0 || e.TID >= 2 {
			t.Fatalf("event %q mapped to pid %d tid %d", e.Name, e.PID, e.TID)
		}
	}
}

// TestTraceRingBoundsMemory checks the large-P story: a positive trace limit
// keeps only the newest events per actor while the metrics registry still
// counts everything.
func TestTraceRingBoundsMemory(t *testing.T) {
	full, err := traceSpec(t, "locking").Run()
	if err != nil {
		t.Fatal(err)
	}
	ring, err := traceSpec(t, "locking", Trace(16)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ring.Events.Events()); n > 16*4 {
		t.Errorf("ring retained %d events, want at most limit*procs = 64", n)
	}
	if ring.Events.Dropped() == 0 {
		t.Error("ring dropped nothing; cell too small for the test to bite")
	}
	if full.Metrics.Counter(obs.MetricMsgs) != ring.Metrics.Counter(obs.MetricMsgs) ||
		full.Metrics.Counter(obs.MetricLockReqs) != ring.Metrics.Counter(obs.MetricLockReqs) {
		t.Error("metrics must be identical regardless of the event ring")
	}
}
