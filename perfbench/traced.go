package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"atomio"
	"atomio/internal/obs"
)

// ringLimit is the per-actor event ring of the flight-recorder overhead
// measurement.
const ringLimit = 64

// counts sums a pass's obs metrics registries. Every field is exact, so two
// passes over the same cells compare equal with ==.
type counts struct {
	msgs, bytes, lockReqs, pfsReqs, qdepthMax int64
	parks, walAppends, walReplays             int64
	lockWait                                  obs.Histogram
}

func (c *counts) add(m *atomio.TraceMetrics) {
	c.msgs += m.Counter(obs.MetricMsgs)
	c.bytes += m.Counter(obs.MetricMsgBytes)
	c.lockReqs += m.Counter(obs.MetricLockReqs)
	c.pfsReqs += m.Counter(obs.MetricPFSReqs)
	c.qdepthMax = max(c.qdepthMax, m.Gauge(obs.MetricQueueDepth))
	c.parks += m.Counter(obs.MetricParks)
	c.walAppends += m.Counter(obs.MetricWALAppends)
	c.walReplays += m.Counter(obs.MetricWALReplays)
	c.lockWait.Merge(m.Hists[obs.MetricLockWait])
}

func (c *counts) metrics(out map[string]metric) {
	out["mpi.msgs"] = metric{float64(c.msgs), "count"}
	out["mpi.bytes"] = metric{float64(c.bytes), "bytes"}
	out["lock.requests"] = metric{float64(c.lockReqs), "count"}
	out["lock.wait_p50_vns"] = metric{float64(c.lockWait.Quantile(0.5)), "vns"}
	out["lock.wait_p99_vns"] = metric{float64(c.lockWait.Quantile(0.99)), "vns"}
	out["pfs.requests"] = metric{float64(c.pfsReqs), "count"}
	out["pfs.qdepth_max"] = metric{float64(c.qdepthMax), "count"}
	out["sched.parks"] = metric{float64(c.parks), "count"}
	out["pfs.wal_appends"] = metric{float64(c.walAppends), "count"}
	out["pfs.wal_replays"] = metric{float64(c.walReplays), "count"}
	out["events"] = metric{float64(c.msgs + c.lockReqs + c.pfsReqs + c.parks), "count"}
}

// tracedRun measures a workload's per-layer metrics in three parts:
//
//  1. the pass's cells in turn, each run untraced, metrics-only traced and
//     with an event ring in rotating order after an untimed run, until the
//     untraced runs add up to a third of seconds, for the two
//     tracing-overhead ratios;
//  2. metrics-only passes under a CPU profile until seconds have elapsed
//     (at least one pass), for the self-time shares and the obs counts of
//     the first pass, which every later pass must repeat exactly;
//  3. timings of each layer's public entry points on the pass's inputs.
func tracedRun(setup setUpFunc, seconds float64) (*report, error) {
	var t tally
	p, err := setup(&t)
	if err != nil {
		return nil, err
	}
	out := make(map[string]metric)

	gc := newCollector()
	var spent [3]time.Duration // host CPU: untraced, metrics-only, ring
	for i := 0; i == 0 || spent[0].Seconds() < seconds/3; i++ {
		c := p.pass[i%len(p.pass)]
		// An untimed run first, so no mode pays for the heap growth and
		// page faults of the cell's first run.
		gc.beforeCell()
		runCell(c.Cell)
		for k := range 3 {
			mode := (i + k) % 3
			run := c.Cell
			switch mode {
			case 1:
				run = traced(run, -1)
			case 2:
				run = traced(run, ringLimit)
			}
			gc.beforeCell() // as in the untraced run
			r, d := runCell(run)
			spent[mode] += d.cpu
			t.check(p.pins, c, r, p.fleet)
		}
	}
	out["obs.metrics_overhead"] = metric{spent[1].Seconds() / spent[0].Seconds(), "ratio"}
	out["obs.ring_overhead"] = metric{spent[2].Seconds() / spent[0].Seconds(), "ratio"}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	start := time.Now()
	var first counts
	passes := 0
	for passes == 0 || time.Since(start).Seconds() < seconds {
		var cur counts
		var results []atomio.CellResult
		failedBefore := t.failed
		for _, c := range p.pass {
			r, _ := runCell(traced(c.Cell, -1))
			t.check(p.pins, c, r, p.fleet)
			if r.Err == nil {
				cur.add(r.Result.Metrics)
			}
			if p.fleet {
				results = append(results, r)
			}
		}
		if p.fleet {
			t.gate(results, failedBefore)
		}
		if passes == 0 {
			first = cur
		} else if cur != first {
			t.fail(fmt.Sprintf("pass %d obs counts differ from the first pass", passes+1))
		}
		passes++
	}
	profWall := time.Since(start)
	pprof.StopCPUProfile()
	first.metrics(out)
	shares, cpu, err := layerShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for layer, s := range shares {
		out["self."+layer] = metric{s, "share"}
	}
	calls, err := publicCalls(p.workload)
	if err != nil {
		return nil, err
	}
	for k, v := range calls {
		out[k] = v
	}

	return &report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   out,
		profile:   prof.Bytes(),
		Notes: append([]string{
			fmt.Sprintf("profile: %d metrics-only passes of %d cells, %.2f s wall, %.2f s CPU", passes, len(p.pass), profWall.Seconds(), cpu),
		}, t.notes...),
		Detail: map[string]float64{
			"profile_passes": float64(passes),
			"profile_cpu_s":  cpu,
			"profile_wall_s": profWall.Seconds(),
			"pass_cells":     float64(len(p.pass)),
		},
	}, nil
}
