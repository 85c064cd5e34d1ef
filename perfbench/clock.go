package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// stamp is a point on the two host clocks: wall time, and the CPU time
// every thread of the process has used (user plus system). The CPU clock
// does not advance while the hypervisor runs other guests, so it is the
// steadier measure on a shared virtual machine; it does count the garbage
// collector's work on other cores.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

// cost is the host time spent between two stamps.
type cost struct {
	wall, cpu time.Duration
}

func now() stamp {
	return stamp{wall: time.Now(), cpu: processCPU()}
}

func (s stamp) since() cost {
	return cost{wall: time.Since(s.wall), cpu: processCPU() - s.cpu}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcEveryBytes is how much a workload may allocate before the next cell
// starts from a forced collection.
const gcEveryBytes = 64 << 20

// collector forces a garbage collection before a cell once the cells since
// the last one have allocated gcEveryBytes. The large cells of fig8 and
// lock-p2048 then each start from a collected heap, so a cell's cost does
// not depend on the garbage the cell before it left (nor the seed's cell
// order on it), while fleet's small cells are not slowed by a collection
// apiece. The collection is not timed.
type collector struct {
	allocs []metrics.Sample
	last   uint64
}

func newCollector() *collector {
	return &collector{allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (c *collector) beforeCell() {
	metrics.Read(c.allocs)
	if now := c.allocs[0].Value.Uint64(); now-c.last >= gcEveryBytes || c.last == 0 {
		runtime.GC()
		c.last = now
	}
}
