package sim

import "sync"

// Coord is the coordination surface a deterministic simulation runs on. It
// generalizes *Gate so that the same rank programs — the mailbox waits in
// internal/mpi, the grant-table waits in internal/lock, the server bookings
// in internal/pfs — can be driven either by real goroutines synchronizing
// through a Gate, or by a single-threaded event-loop scheduler resuming
// coroutines (internal/sim/des). Both implementations admit actions in the
// same lexicographic (virtual time, actor id) order, so a simulation
// produces byte-identical virtual output on either.
//
// The Gate methods keep their contract (see Gate): Await announces an
// action and blocks until it is globally earliest, Block marks the actor as
// waiting on a peer, Done retires it. Park and Wake replace the ad-hoc
// condition-variable and channel sleeps that used to sit next to
// Block/Unblock: an actor that has Blocked calls Park to actually sleep,
// and the peer that satisfies it calls Wake — Unblock plus the wake-up —
// under the same shared-structure lock as the Block, so the admission state
// and the sleeper's resumption can never disagree.
type Coord interface {
	// Await announces that actor id wants to act at virtual time t and
	// blocks until that action is the earliest one pending, then takes the
	// exclusive turn (released by the actor's next Coord call).
	Await(id int, t VTime)
	// Block marks the actor as waiting on another actor, excluding it from
	// admission decisions. Call under the lock of the shared structure the
	// actor is about to sleep on, then sleep with Park.
	Block(id int)
	// Park puts the Blocked actor to sleep until a peer Wakes it. If l is
	// non-nil it is unlocked while parked and relocked before Park returns
	// (the condition-variable protocol); the caller rechecks its predicate.
	// A nil l parks without touching any lock.
	Park(id int, l sync.Locker)
	// Wake marks a parked actor live again, publishing t as a lower bound
	// on its next action time, and resumes its Park. It is called by the
	// actor doing the waking, under the same shared-structure lock as the
	// corresponding Block, before the sleeper can run again. Wake and Park
	// pair one-to-one.
	Wake(id int, t VTime)
	// Done retires an actor: it no longer constrains admissions.
	Done(id int)
	// Actors returns the number of actors coordinated.
	Actors() int
}

// Engine executes the actor bodies of one simulation. Implementations:
// Goroutines (one real goroutine per actor, coordinated by a Gate — the
// original engine, kept as the byte-identical oracle) and the event-loop
// scheduler in internal/sim/des (every actor a resumable coroutine driven
// by one event queue, no goroutine parking on the hot path).
type Engine interface {
	// Name identifies the engine in diagnostics ("goroutine", "eventloop").
	Name() string
	// NewCoord returns a coordinator of this engine's flavour for actors
	// 0..actors-1. Pass it to Run and to every structure the simulation
	// blocks on.
	NewCoord(actors int) Coord
	// Run executes body(id) for every actor 0..actors-1 and returns when
	// all bodies have returned. c must be the coordinator the bodies block
	// through: the Goroutines engine accepts any Coord (or nil for a
	// free-running world); the event-loop engine requires its own. A
	// non-nil error reports an engine-level failure (for example actors
	// still asleep after every runnable one finished).
	Run(c Coord, actors int, body func(id int)) error
}

// StoppedError is the panic value delivered to an actor its engine forcibly
// unwinds during teardown — an actor still asleep when no runnable actor
// remains (the event-loop analogue of a run that would otherwise deadlock).
// Rank runtimes treat it like an abort: it unwinds the actor's stack so
// deferred cleanups run, and is reported as a consequence, never as the
// root cause.
type StoppedError struct {
	// Actor is the stopped actor's id.
	Actor int
}

// Error implements the error interface.
func (e StoppedError) Error() string {
	return "sim: actor " + itoa(e.Actor) + " force-stopped by engine teardown (stalled waiting on a peer)"
}

// itoa is a minimal integer formatter so the hot error type needs no fmt.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Goroutines is the original engine: one real goroutine per actor,
// coordinated by a Gate. It accepts any Coord (including nil for a
// free-running world) because the bodies, not the engine, do the blocking.
type Goroutines struct{}

// Name implements Engine.
func (Goroutines) Name() string { return "goroutine" }

// NewCoord implements Engine: goroutine worlds coordinate through a Gate.
func (Goroutines) NewCoord(actors int) Coord { return NewGate(actors) }

// Run implements Engine: spawn the bodies and wait for all of them.
func (Goroutines) Run(_ Coord, actors int, body func(id int)) error {
	var wg sync.WaitGroup
	for i := 0; i < actors; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			body(id)
		}(i)
	}
	wg.Wait()
	return nil
}

var _ Engine = Goroutines{}
