package obs

import (
	"strings"
	"testing"

	"atomio/internal/sim"
)

func TestSpanEmitsEventAndCounter(t *testing.T) {
	r := NewRecorder(2, 0)
	clk := sim.NewClock(100)
	s := r.StartSpan(1, PhaseLockWait, clk)
	clk.Advance(40)
	s.Stop()
	events := r.Events()
	want := Event{T: 100, Actor: 1, Layer: LayerPhase, Kind: KindPhaseSpan, Tag: PhaseLockWait, Peer: -1, Dur: 40}
	if len(events) != 1 || events[0] != want {
		t.Fatalf("events = %+v, want [%+v]", events, want)
	}
	if got := r.ActorCounter(1, PhaseMetric(PhaseLockWait)); got != 40 {
		t.Errorf("rank 1 counter = %d, want 40", got)
	}
	if got := r.ActorCounter(0, PhaseMetric(PhaseLockWait)); got != 0 {
		t.Errorf("untouched rank counter = %d", got)
	}
	if got := r.Metrics().Counter("phase.lockwait.ns"); got != 40 {
		t.Errorf("merged counter = %d, want 40", got)
	}
}

func TestRenderPhasesMaxAndMean(t *testing.T) {
	r := NewRecorder(2, -1)
	r.Count(0, PhaseMetric(PhaseTransfer), 10)
	r.Count(1, PhaseMetric(PhaseTransfer), 30)
	r.Count(0, PhaseMetric(PhaseHandshake), int64(sim.Millisecond))
	want := "phase            max/rank    mean/rank\n" +
		"exchange               0s           0s\n" +
		"handshake             1ms        500µs\n" +
		"lockwait               0s           0s\n" +
		"syncwait               0s           0s\n" +
		"transfer             30ns         20ns\n"
	if got := r.RenderPhases(); got != want {
		t.Errorf("RenderPhases =\n%s\nwant\n%s", got, want)
	}
}

func TestSpanNegativeDurationPanics(t *testing.T) {
	s := NewRecorder(1, 0).StartSpan(0, PhaseTransfer, sim.NewClock(100))
	s.clock = sim.NewClock(50) // clocks never run backwards; swap one in
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Stop()
}

func TestNilRecorderSpanIsNoOp(t *testing.T) {
	var r *Recorder
	clk := sim.NewClock(0)
	allocs := testing.AllocsPerRun(100, func() {
		s := r.StartSpan(0, PhaseTransfer, clk)
		clk.Advance(10)
		s.Stop()
	})
	if allocs != 0 {
		t.Errorf("nil-recorder span allocated %v times per run", allocs)
	}
	if !strings.HasPrefix(r.RenderPhases(), "phase ") || r.ActorCounter(0, PhaseMetric(PhaseTransfer)) != 0 {
		t.Error("nil recorder must read as empty")
	}
}
