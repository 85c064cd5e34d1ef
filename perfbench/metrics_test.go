package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the names test reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestPrintedMetricsAreInBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the comparator %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != endToEnd[i].better) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, comparator %+v", i, m, endToEnd[i])
		}
	}

	w := fleetSmall(t, 20)
	untraced, err := untracedRun(setUpOf(w), 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := tracedRun(setUpOf(w), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := func(rep *report, declared map[string]string, what string) {
		for name, m := range rep.Metrics {
			unit, ok := declared[name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is not in BENCHMARK.json", what, name)
			case unit != m.Unit:
				t.Errorf("%s metric %s: unit %s, BENCHMARK.json says %s", what, name, m.Unit, unit)
			}
		}
		for name := range declared {
			if _, ok := rep.Metrics[name]; !ok {
				t.Errorf("BENCHMARK.json %s metric %s is not printed", what, name)
			}
		}
	}
	e2e := make(map[string]string)
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := make(map[string]string)
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	want(untraced, e2e, "end-to-end")
	want(traced, layer, "per-layer")
}
