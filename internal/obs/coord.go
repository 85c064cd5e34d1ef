package obs

import (
	"sync"

	"atomio/internal/sim"
)

// CoordTracer wraps a sim.Coord and emits scheduler events: a sched.park
// when an actor goes to sleep, a sched.wake (stamped by the waker, on the
// sleeper's stream) publishing the wake bound, and a sched.resume when the
// sleeper runs again.
//
// Thread safety leans entirely on the Coord contract: Wake is called under
// the same shared-structure lock as the sleeper's Block, so the sleeper's
// park append (made in Block, under that lock) is mutex-ordered before the
// waker's wake append, and the wake append happens-before the sleeper's
// resume append because the inner Park returns only after the matching
// Wake. Outside that window only the owning actor touches its slot.
type CoordTracer struct {
	inner sim.Coord
	rec   *Recorder
	// lastT tracks each actor's latest announced virtual time so park and
	// resume events carry the actor's current clock without reaching into
	// layer internals.
	lastT []sim.VTime
}

// Trace wraps c so that park/wake/resume flow into rec. A nil rec returns
// c unwrapped — tracing off costs nothing.
func Trace(c sim.Coord, rec *Recorder) sim.Coord {
	if rec == nil || c == nil {
		return c
	}
	return &CoordTracer{inner: c, rec: rec, lastT: make([]sim.VTime, c.Actors())}
}

// Unwrap exposes the wrapped coordinator so engines that require their own
// Coord flavour (the event-loop scheduler) can recover it.
func (t *CoordTracer) Unwrap() sim.Coord { return t.inner }

// Await implements sim.Coord, recording the actor's announced time.
func (t *CoordTracer) Await(id int, at sim.VTime) {
	if at > t.lastT[id] {
		t.lastT[id] = at
	}
	t.inner.Await(id, at)
}

// Block implements sim.Coord and emits the park event. Emission happens
// here rather than in Park because Block always runs under the shared
// structure's lock while Park may run after it is dropped (a Park with a
// nil locker): the waker needs that same lock
// before it can Wake, so the park append is mutex-ordered before the
// wake append and the park timestamp cannot race with the wake bound.
func (t *CoordTracer) Block(id int) {
	t.rec.Emit(Event{T: t.lastT[id], Actor: id, Layer: LayerSched, Kind: KindPark, Peer: -1})
	t.rec.Count(id, MetricParks, 1)
	t.inner.Block(id)
}

// Park implements sim.Coord, emitting the resume event when the sleeper
// runs again. The resume timestamp reflects the wake bound published
// while parked: the inner Park returns only after the matching Wake, and
// that handoff orders Wake's lastT write before this read.
func (t *CoordTracer) Park(id int, l sync.Locker) {
	t.inner.Park(id, l)
	t.rec.Emit(Event{T: t.lastT[id], Actor: id, Layer: LayerSched, Kind: KindResume, Peer: -1})
}

// Wake implements sim.Coord, stamping the wake bound onto the sleeper's
// stream before resuming it.
func (t *CoordTracer) Wake(id int, at sim.VTime) {
	if at > t.lastT[id] {
		t.lastT[id] = at
	}
	t.rec.Emit(Event{T: at, Actor: id, Layer: LayerSched, Kind: KindWake, Peer: -1})
	t.inner.Wake(id, at)
}

// Done implements sim.Coord.
func (t *CoordTracer) Done(id int) { t.inner.Done(id) }

// Actors implements sim.Coord.
func (t *CoordTracer) Actors() int { return t.inner.Actors() }

var _ sim.Coord = (*CoordTracer)(nil)
