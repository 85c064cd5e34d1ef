package main

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	write := func(dir string, f resultFile) {
		t.Helper()
		f.Schema = resultSchema
		if err := f.write(dir); err != nil {
			t.Fatal(err)
		}
	}
	wall := func(seed uint64, v float64) resultFile {
		return resultFile{Workload: wlFig8, Seed: seed, report: report{
			Metrics: map[string]metric{"host_s": {v, "s"}},
		}}
	}
	for i, v := range []float64{10, 11, 12} {
		write(dirA, wall(uint64(i+1), v))
	}
	for i, v := range []float64{9, 12, 11} { // B wins seeds 1 and 3
		write(dirB, wall(uint64(i+1), v))
	}
	trace := func(lock, pfs, writev float64) resultFile {
		return resultFile{Workload: wlFig8, Seed: 1, Trace: 1, report: report{
			Metrics: map[string]metric{
				"self.lock":          {lock, "share"},
				"self.pfs":           {pfs, "share"},
				"pfs.writev_sync_ns": {writev, "ns"},
			},
			Detail: map[string]float64{"profile_cpu_s": 10, "profile_passes": 2},
		}}
	}
	write(dirA, trace(0.5, 0.1, 1000))
	write(dirB, trace(0.1, 0.1, 1100))

	var out strings.Builder
	if err := compare([]string{dirA, dirB}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	var wallLine string
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "host_s") {
			wallLine = l
		}
	}
	if !strings.Contains(wallLine, "11 [10 12]") || !strings.Contains(wallLine, "2/3") {
		t.Errorf("host_s line %q lacks A's quartiles or B's 2/3 pairs won", wallLine)
	}
	_, ranked, ok := strings.Cut(text, "layers ranked by movement")
	if !ok {
		t.Fatalf("no traced ranking in:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(ranked), "\n")
	if len(lines) < 4 || !strings.HasPrefix(strings.TrimSpace(lines[1]), "self.lock_s") ||
		!strings.HasPrefix(strings.TrimSpace(lines[2]), "pfs.writev_sync_ns") {
		t.Errorf("ranking should lead with self.lock_s (2.5 s -> 0.5 s per pass), then pfs.writev_sync_ns:\n%s", ranked)
	}
	if err := compare([]string{dirA}, &out); err == nil {
		t.Error("compare with one directory did not fail")
	}
}
