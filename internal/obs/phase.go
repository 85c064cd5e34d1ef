package obs

import (
	"fmt"
	"strings"

	"atomio/internal/sim"
)

// Phase names: the standard phases of an atomic collective write, the Tag
// of every phase.span event.
const (
	PhaseExchange  = "exchange"  // two-phase data redistribution
	PhaseHandshake = "handshake" // view exchange, matrix, coloring
	PhaseLockWait  = "lockwait"  // waiting for byte-range locks
	PhaseSyncWait  = "syncwait"  // barriers between phases/colors
	PhaseTransfer  = "transfer"  // data movement to/from servers
)

// phases lists the standard phases in render (alphabetical) order.
var phases = [...]string{PhaseExchange, PhaseHandshake, PhaseLockWait, PhaseSyncWait, PhaseTransfer}

// PhaseMetric names the per-actor counter a phase's spans charge.
func PhaseMetric(phase string) string { return MetricPhasePrefix + phase + ".ns" }

// Span measures one contiguous phase occurrence on an actor's virtual
// clock: open it with StartSpan, close it with Stop.
type Span struct {
	rec   *Recorder
	actor int
	phase string
	start sim.VTime
	clock *sim.Clock
}

// StartSpan opens a phase span on the actor's clock. A nil recorder yields
// a no-op span, so instrumented code paths need no conditionals.
func (r *Recorder) StartSpan(actor int, phase string, clock *sim.Clock) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, actor: actor, phase: phase, start: clock.Now(), clock: clock}
}

// Stop closes the span: it emits one phase.span event and charges the
// elapsed virtual time to the actor's phase counter.
func (s Span) Stop() {
	if s.rec == nil {
		return
	}
	d := s.clock.Now() - s.start
	if d < 0 {
		panic(fmt.Sprintf("obs: negative %s span %v", s.phase, d))
	}
	s.rec.Emit(Event{
		T: s.start, Actor: s.actor, Layer: LayerPhase, Kind: KindPhaseSpan,
		Tag: s.phase, Peer: -1, Dur: d,
	})
	s.rec.Count(s.actor, PhaseMetric(s.phase), int64(d))
}

// ActorCounter reads one actor's counter (0 when absent or nil).
func (r *Recorder) ActorCounter(actor int, name string) int64 {
	if r == nil {
		return 0
	}
	return r.streams[actor].counters[name]
}

// RenderPhases prints the per-phase summary table of a run: for each
// standard phase, the largest per-actor total (the critical-path
// contribution) and the mean over actors. Counters are exact whatever the
// event limit, so the table is too.
func (r *Recorder) RenderPhases() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "phase", "max/rank", "mean/rank")
	for _, p := range phases {
		var most, total sim.VTime
		for a := 0; a < r.Actors(); a++ {
			d := sim.VTime(r.ActorCounter(a, PhaseMetric(p)))
			most = max(most, d)
			total += d
		}
		fmt.Fprintf(&b, "%-12s %12v %12v\n", p, most, total/sim.VTime(max(r.Actors(), 1)))
	}
	return b.String()
}
