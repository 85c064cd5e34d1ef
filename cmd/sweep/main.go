// Command sweep runs custom parameter sweeps of the concurrent overlapping
// write experiment beyond the paper's Figure 8 grid: any array shape,
// process counts, overlap widths, partitioning patterns and strategies.
//
// Example: bandwidth versus overlap width for the handshaking strategies on
// the IBM SP profile:
//
//	sweep -platform "IBM SP" -m 1024 -n 16384 -p 4,8,16 -r 128 -strategies coloring,ordering
//
// Cells run concurrently on a worker pool (-workers); results can also be
// emitted as JSON or CSV (-json, -csv), per-cell event traces as JSONL or
// Chrome trace-event JSON (-trace-out), and the metrics registry into the
// emitted records (-metrics); -trace prints each cell's phase breakdown
// from the recorder's per-rank counters. Malformed flag values exit non-zero with a
// diagnostic. Flags are declared through the shared internal/cli layer and
// the grid is resolved and executed by the public atomio facade.
package main

import (
	"fmt"
	"io"
	"os"

	"atomio"
	"atomio/internal/cli"
)

// config is the parsed command line.
type config struct {
	platform   string
	shape      *cli.Shape
	procs      []int
	pattern    string
	strategies []string
	store      bool
	trace      bool
	out        *cli.Output
	model      *cli.Model
	events     *cli.Trace
}

// parseFlags parses and validates the command line, printing diagnostics
// to stderr.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	app := cli.New("sweep")
	app.SetOutput(stderr)
	cfg := &config{}
	platformFlag := app.Platform("Origin2000", "platform profile")
	cfg.shape = app.Shape(1024, 8192, 16)
	procsFlag := app.Flags.String("p", "4,8,16", "comma-separated process counts")
	patternFlag := app.Flags.String("pattern", "column", "partitioning: column, row, block")
	strategiesFlag := app.Flags.String("strategies", "locking,coloring,ordering",
		"comma-separated strategies (locking, coloring, ordering, twophase, listio)")
	app.Flags.BoolVar(&cfg.store, "store", false, "materialize file bytes")
	app.Flags.BoolVar(&cfg.trace, "trace", false, "print per-phase virtual-time breakdowns")
	cfg.out = app.Output(false)
	cfg.model = app.Model()
	cfg.events = app.Trace()
	app.Check(func() (err error) { cfg.procs, err = cli.ParseProcs(*procsFlag); return })
	app.Check(func() (err error) { cfg.pattern, err = cli.ParsePattern(*patternFlag); return })
	app.Check(func() (err error) { cfg.strategies, err = cli.ParseStrategies(*strategiesFlag); return })
	if err := app.Parse(args); err != nil {
		return nil, err
	}
	cfg.platform = *platformFlag
	return cfg, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with injected streams, for tests: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return cli.ExitCode(err)
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 1
	}

	prof, err := atomio.PlatformByName(cfg.platform)
	if err != nil {
		return fail(err)
	}
	var strategies []string
	for _, name := range cfg.strategies {
		if name == "locking" && !prof.SupportsLocking() {
			fmt.Fprintf(stderr, "sweep: skipping locking (%s has no byte-range locking)\n", prof.Name)
			continue
		}
		strategies = append(strategies, name)
	}
	if len(strategies) == 0 {
		return fail(fmt.Errorf("no runnable strategies on %s", prof.Name))
	}

	grid := atomio.Grid{
		Platforms:  []string{prof.Name},
		Sizes:      []atomio.Size{{M: cfg.shape.M, N: cfg.shape.N}},
		Procs:      cfg.procs,
		Overlap:    cfg.shape.Overlap,
		Pattern:    cfg.pattern,
		Strategies: strategies,
		StoreData:  cfg.store,
	}
	cfg.model.Apply(&grid)
	cfg.events.Apply(&grid)
	if cfg.trace && !grid.Trace {
		// The phase breakdown reads the recorder's per-rank counters;
		// metrics-only recording keeps them without retaining events.
		grid.Trace, grid.TraceLimit = true, -1
	}
	cells, err := grid.Cells()
	if err != nil {
		return fail(err)
	}
	results := atomio.RunGrid(cells, cfg.out.RunOptions("sweep"))
	if err := atomio.EmitFiles(cfg.out.JSON, cfg.out.CSV, results); err != nil {
		return fail(err)
	}
	if err := cfg.events.Write(results); err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "%s  %s %dx%d  R=%d\n", prof.Name, cfg.pattern, cfg.shape.M, cfg.shape.N, cfg.shape.Overlap)
	fmt.Fprintf(stdout, "%-6s", "P")
	for _, name := range strategies {
		fmt.Fprintf(stdout, "%16s", name)
	}
	fmt.Fprintln(stdout)
	// Cells enumerate process counts outermost, strategies innermost — the
	// table's row-major order.
	i := 0
	status := 0
	for range cfg.procs {
		fmt.Fprintf(stdout, "%-6d", cells[i].Experiment.Procs)
		for range strategies {
			r := results[i]
			if r.Err != nil {
				status = 1
				fmt.Fprintf(stdout, "%16s", "error")
				fmt.Fprintf(stderr, "sweep: %s: %v\n", r.Cell.ID, r.Err)
			} else {
				fmt.Fprintf(stdout, "%11.2f MB/s", r.Result.BandwidthMBs)
			}
			i++
		}
		fmt.Fprintln(stdout)
	}
	if cfg.trace {
		for _, r := range results {
			if r.Err != nil {
				continue
			}
			fmt.Fprintf(stdout, "\nP=%d %s phase breakdown:\n%s",
				r.Cell.Experiment.Procs, r.Cell.Experiment.Strategy.Name(), r.Result.Events.RenderPhases())
		}
	}
	return status
}
