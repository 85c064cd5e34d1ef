package main

import (
	"fmt"
	"time"

	"atomio/internal/core"
	"atomio/internal/datatype"
	"atomio/internal/fileview"
	"atomio/internal/harness"
	"atomio/internal/interval"
	"atomio/internal/lock"
	"atomio/internal/mpi"
	"atomio/internal/pfs"
	"atomio/internal/sim"
	"atomio/internal/sim/des"
	"atomio/internal/verify"
	partition "atomio/internal/workload"
)

// allgatherMaxProcs bounds the P at which mpi.allgather_ns is timed: the
// ring allgather sends P*(P-1) messages, and the P=2048 locking workload
// never runs one.
const allgatherMaxProcs = 1024

// clipMaxRanks bounds the ranks core.ClipForRank is timed for in one cell:
// each call sweeps every rank's view, so timing all P=2048 ranks would
// take longer than the rest of the traced run.
const clipMaxRanks = 16

// sampleRanks returns every rank up to clipMaxRanks, else clipMaxRanks
// evenly spaced ranks.
func sampleRanks(procs int) []int {
	n := min(procs, clipMaxRanks)
	out := make([]int, n)
	for i := range out {
		out[i] = i * procs / n
	}
	return out
}

// callTimer accumulates host time and a call count for one entry point.
type callTimer struct {
	ns    int64
	calls int64
}

func (c *callTimer) time(f func()) {
	start := time.Now()
	f()
	c.ns += time.Since(start).Nanoseconds()
	c.calls++
}

func (c *callTimer) perCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls)
}

// pieces returns every rank's share of a cell's array under its pattern.
func pieces(e harness.Experiment) ([]partition.Piece, error) {
	out := make([]partition.Piece, e.Procs)
	for rank := range out {
		var err error
		switch e.Pattern {
		case harness.ColumnWise:
			out[rank], err = partition.ColumnWise(e.M, e.N, e.Procs, e.Overlap, rank)
		case harness.RowWise:
			out[rank], err = partition.RowWise(e.M, e.N, e.Procs, e.Overlap, rank)
		default:
			err = fmt.Errorf("pattern %v not timed", e.Pattern)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// publicCalls times each layer's public entry points on a workload pass's
// own inputs and returns host ns per call, the extents Flatten produced and
// the mappings MapAt produced. Entry points a workload never reaches
// (verify on data-less cells, allgather past allgatherMaxProcs) read 0.
func publicCalls(w *workload) (map[string]metric, error) {
	var flatten, mapAt, overlap, clip, writev, lockUnlock, allgather, check callTimer
	var extents, mappings int64
	for _, c := range w.pass {
		e := c.Experiment
		ps, err := pieces(e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.ID, err)
		}
		views := make([]interval.List, e.Procs)
		maps := make([][]fileview.Mapping, e.Procs)
		for rank, p := range ps {
			flatten.time(func() { views[rank] = interval.List(p.Filetype.Flatten()) })
			extents += int64(len(views[rank]))
			v := fileview.New(0, datatype.Byte, p.Filetype)
			mapAt.time(func() { maps[rank] = v.MapAt(0, p.BufBytes) })
			mappings += int64(len(maps[rank]))
		}

		overlap.time(func() { core.GreedyColor(core.BuildOverlapMatrix(views)) })
		for _, rank := range sampleRanks(e.Procs) {
			clip.time(func() { core.ClipForRank(views, rank) })
		}

		// One interior rank's write of its whole piece through a fresh
		// client, flushed to the servers.
		prof := e.Platform
		cfg := prof.PFSConfig(e.StoreData)
		if e.Servers > 0 {
			cfg.Servers = e.Servers
		}
		fs, err := pfs.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.ID, err)
		}
		rank := e.Procs / 2
		buf := make([]byte, ps[rank].BufBytes)
		segs := make([]pfs.Segment, len(maps[rank]))
		for i, m := range maps[rank] {
			segs[i] = pfs.Segment{Off: m.File.Off, Data: buf[m.Buf : m.Buf+m.File.Len]}
		}
		client, err := fs.Open("bench.dat", rank, sim.NewClock(0))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.ID, err)
		}
		writev.time(func() { client.WriteV(segs); client.Sync() })

		if mgr := prof.NewLockManager(); mgr != nil {
			for rank, v := range views {
				span := v.Span()
				lockUnlock.time(func() { mgr.Unlock(rank, span, mgr.Lock(rank, span, lock.Exclusive, 0)) })
			}
		}

		if e.Procs <= allgatherMaxProcs {
			enc := make([][]byte, e.Procs)
			for rank, v := range views {
				enc[rank] = core.EncodeExtents(v)
			}
			cfg := prof.MPIConfig(e.Procs)
			cfg.Engine = des.New()
			cfg.Coord = cfg.Engine.NewCoord(e.Procs)
			allgather.time(func() {
				_, err = mpi.Run(cfg, func(comm *mpi.Comm) error {
					comm.Allgather(enc[comm.Rank()])
					return nil
				})
			})
			if err != nil {
				return nil, fmt.Errorf("%s: allgather: %w", c.ID, err)
			}
		}

		if e.Verify {
			// A serializable outcome of the cell: every rank's marker
			// over its view, in rank order.
			data := make([]byte, int64(e.M)*int64(e.N))
			for rank, v := range views {
				for _, x := range v {
					for i := x.Off; i < x.End(); i++ {
						data[i] = verify.Marker(rank)
					}
				}
			}
			check.time(func() { verify.CheckBytes(data, views) })
		}
	}
	return map[string]metric{
		"datatype.flatten_ns": {flatten.perCall(), "ns"},
		"datatype.extents":    {float64(extents), "count"},
		"fileview.mapat_ns":   {mapAt.perCall(), "ns"},
		"fileview.mappings":   {float64(mappings), "count"},
		"core.overlap_ns":     {overlap.perCall(), "ns"},
		"core.clip_ns":        {clip.perCall(), "ns"},
		"pfs.writev_sync_ns":  {writev.perCall(), "ns"},
		"lock.lock_unlock_ns": {lockUnlock.perCall(), "ns"},
		"mpi.allgather_ns":    {allgather.perCall(), "ns"},
		"verify.check_ns":     {check.perCall(), "ns"},
	}, nil
}
