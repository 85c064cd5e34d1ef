package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// endToEnd lists the end-to-end metrics with the direction that is better.
var endToEnd = []struct{ name, unit, better string }{
	{"host_s", "s", "lower"},
	{"cell_p50_ms", "ms", "lower"},
	{"cell_tail_ms", "ms", "lower"},
	{"alloc_mb_per_cell", "MB", "lower"},
	{"allocs_per_cell", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_events_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// loadResults reads every perfbench result file in dir.
func loadResults(dir string) ([]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []resultFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if f.Schema == resultSchema {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s result files in %s", resultSchema, dir)
	}
	return out, nil
}

// compare prints, per workload, each end-to-end metric's median and
// quartiles on both sides with the share of seed-matched pairs side B
// wins, then ranks the per-layer self times and public-call timings of the
// traced runs by how far they moved.
func compare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare <dirA> <dirB>")
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return err
	}
	for _, wl := range workloadNames {
		ua, ub := pick(a, wl, 0), pick(b, wl, 0)
		if len(ua) > 0 && len(ub) > 0 {
			fmt.Fprintf(w, "%s: %d runs (A) vs %d runs (B)\n", wl, len(ua), len(ub))
			fmt.Fprintf(w, "  %-18s %-32s %-32s %8s %s\n", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "B wins")
			for _, m := range endToEnd {
				va, vb := values(ua, m.name), values(ub, m.name)
				won, pairs := pairsWon(ua, ub, m.name, m.better)
				fmt.Fprintf(w, "  %-18s %-32s %-32s %+7.1f%% %d/%d\n", m.name,
					summarize(va), summarize(vb), 100*(median(vb)/median(va)-1), won, pairs)
			}
		}
		ta, tb := pick(a, wl, 1), pick(b, wl, 1)
		if len(ta) > 0 && len(tb) > 0 {
			fmt.Fprintf(w, "%s traced: layers ranked by movement (self s per pass, ns per call)\n", wl)
			for _, mv := range layerMoves(ta, tb) {
				fmt.Fprintf(w, "  %-22s %14.6g -> %-14.6g %+7.1f%%\n", mv.name, mv.a, mv.b, 100*mv.change)
			}
		}
	}
	return nil
}

func pick(files []resultFile, workload string, trace int) []resultFile {
	var out []resultFile
	for _, f := range files {
		if f.Workload == workload && f.Trace == trace {
			out = append(out, f)
		}
	}
	return out
}

func values(files []resultFile, name string) []float64 {
	var out []float64
	for _, f := range files {
		if m, ok := f.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summarize(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%.6g", median(xs))
	}
	q1, q2, q3, _ := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g %.6g]", q2, q1, q3)
}

// pairsWon pairs A and B runs by seed and counts the pairs where B is
// strictly better; ties count for neither side.
func pairsWon(a, b []resultFile, name, better string) (won, pairs int) {
	bySeed := make(map[uint64]float64)
	for _, f := range a {
		if m, ok := f.Metrics[name]; ok {
			bySeed[f.Seed] = m.Value
		}
	}
	for _, f := range b {
		m, ok := f.Metrics[name]
		va, paired := bySeed[f.Seed]
		if !ok || !paired {
			continue
		}
		pairs++
		if (better == "lower" && m.Value < va) || (better == "higher" && m.Value > va) {
			won++
		}
	}
	return won, pairs
}

type move struct {
	name      string
	a, b      float64
	change    float64
	magnitude float64
}

// layerMoves compares traced runs: each layer's self time per pass (its
// CPU share times the profiled CPU seconds over the profiled passes) and
// each public-call timing, medians on each side, ranked by the size of
// the relative change.
func layerMoves(a, b []resultFile) []move {
	side := func(files []resultFile) map[string]float64 {
		per := make(map[string][]float64)
		for _, f := range files {
			passes := f.Detail["profile_passes"]
			for k, m := range f.Metrics {
				switch {
				case strings.HasPrefix(k, "self.") && passes > 0:
					per[k+"_s"] = append(per[k+"_s"], m.Value*f.Detail["profile_cpu_s"]/passes)
				case strings.HasSuffix(k, "_ns"):
					per[k] = append(per[k], m.Value)
				}
			}
		}
		out := make(map[string]float64, len(per))
		for k, v := range per {
			out[k] = median(v)
		}
		return out
	}
	ma, mb := side(a), side(b)
	var moves []move
	for k, va := range ma {
		vb, ok := mb[k]
		if !ok || va == 0 {
			continue
		}
		c := vb/va - 1
		moves = append(moves, move{name: k, a: va, b: vb, change: c, magnitude: math.Abs(math.Log(vb / va))})
	}
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].magnitude != moves[j].magnitude {
			return moves[i].magnitude > moves[j].magnitude
		}
		return moves[i].name < moves[j].name
	})
	return moves
}
