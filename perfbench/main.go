// Command perfbench is atomio's host-time benchmark. It runs one of three
// workloads — the Figure 8 grid, the P=2048 locking cell and the seeded
// failure-injection fleet — closed-loop, one cell at a time, checks every
// cell's virtual output against pinned digests, and prints its metrics:
// the end-to-end metrics untraced (-trace 0), the per-layer metrics from a
// traced, profiled run (-trace 1). The last line of standard output is the
// run's JSON summary; a result file with more detail goes to -out.
//
//	perfbench -workload fig8 -seed 1 -seconds 15 -trace 0
//	perfbench pin [-dir pins]          rewrite the pinned digests
//	perfbench compare <dirA> <dirB>    compare two sets of result files
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "pin":
			fl := flag.NewFlagSet("pin", flag.ContinueOnError)
			dir := fl.String("dir", "pins", "directory to write the pin tables to")
			if err := fl.Parse(args[1:]); err != nil {
				return err
			}
			return writePins(*dir, workloadNames)
		case "compare":
			return compare(args[1:], stdout)
		}
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: fig8, lock-p2048 or fleet")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 15, "measured seconds (whole passes, at least one)")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	out := fl.String("out", ".bench_out", "directory for the result file")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fl.Args())
	}
	var rep *report
	var err error
	switch *trace {
	case 0:
		rep, err = untracedRun(named(*name, *seed), *seconds)
	case 1:
		rep, err = tracedRun(named(*name, *seed), *seconds)
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		return err
	}
	file := resultFile{
		Schema: resultSchema, Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		report: *rep,
	}
	if err := file.write(*out); err != nil {
		return err
	}
	return printReport(stdout, *name, rep)
}

// resultSchema versions the result files the comparator reads.
const resultSchema = "perfbench/v1"

// resultFile is one run's result file.
type resultFile struct {
	Schema     string  `json:"schema"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	report
}

func (f resultFile) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", f.Workload, f.Seed, f.Trace))
	if f.profile != nil {
		if err := os.WriteFile(base+".pprof", f.profile, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(base+".json", append(b, '\n'), 0o644)
}

// printReport prints every metric by name with its unit, the notes, and
// last the one-line JSON summary.
func printReport(w io.Writer, name string, rep *report) error {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rep.Metrics[k]
		fmt.Fprintf(w, "%-11s %-22s %16.6g %s\n", name, k, m.Value, m.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "%-11s %s\n", name, n)
	}
	summary, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(summary))
	return err
}
