package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"atomio/internal/lock.(*table).release"}, "lock"},
		{[]string{"atomio/internal/sim/des.(*scheduler).drain"}, "des"},
		{[]string{"atomio/internal/sim/fault.(*Injector).Filter"}, "sim"},
		{[]string{"atomio/internal/runner.runCell"}, "harness"},
		{[]string{"atomio/internal/platform.Profile.PFSConfig"}, "other"},
		// Generic instantiations name other packages inside brackets.
		{[]string{"atomio/internal/interval/index.(*Index[go.shape.struct { atomio/internal/lock.h int }]).Insert"}, "interval"},
		// Library code counts for the atomio frame that called it.
		{[]string{"runtime.memmove", "sort.insertionSort_func", "atomio/internal/interval/index.SweepOverlaps"}, "interval"},
		{[]string{"slices.partitionOrdered[go.shape.int]", "atomio/internal/lock.(*table).release"}, "lock"},
		{[]string{"runtime.coroswitch", "iter.Pull[go.shape.int].func1", "atomio/internal/sim/des.(*scheduler).run"}, "des"},
		// Allocation and the collector have buckets of their own.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "atomio/internal/pfs.(*cache).takeDirty"}, "alloc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.growslice", "atomio/internal/core.segments"}, "alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "atomio/internal/lock.x"}, "gc"},
		{[]string{"runtime.wbBufFlush1", "gcWriteBarrier", "atomio/internal/mpi.(*mailbox).put"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"main.runCell"}, "other"},
		{nil, "runtime"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestLayerSharesOfRealProfile(t *testing.T) {
	w := fleetSmall(t, 200)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < time.Second; {
		for _, c := range w.pass {
			runCell(c.Cell)
		}
	}
	pprof.StopCPUProfile()
	shares, cpu, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 {
		t.Fatalf("profile sampled %v CPU seconds", cpu)
	}
	var sum, sim float64
	for _, l := range layers {
		sum += shares[l]
		if l != "gc" && l != "alloc" && l != "runtime" && l != "other" {
			sim += shares[l]
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if sim == 0 {
		t.Error("no sample was attributed to a simulator layer")
	}
	if _, _, err := layerShares([]byte("not a profile")); err == nil {
		t.Error("layerShares accepted garbage")
	}
}
