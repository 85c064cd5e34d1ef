package lock

import (
	"sync"
	"testing"
	"time"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

func ext(off, l int64) interval.Extent { return interval.Extent{Off: off, Len: l} }

const (
	msg = 10 * sim.Microsecond
	svc = 5 * sim.Microsecond
)

func newCentralForTest() *Central {
	return NewCentral(CentralConfig{MsgCost: msg, ServiceTime: svc})
}

func newDistributedForTest() *Distributed {
	return NewDistributed(DistributedConfig{
		LocalCost:   sim.Microsecond,
		MsgCost:     msg,
		ServiceTime: svc,
		RevokeCost:  50 * sim.Microsecond,
	})
}

// managers returns every manager flavour under test.
func managers() map[string]Manager {
	return map[string]Manager{
		"central":     newCentralForTest(),
		"distributed": newDistributedForTest(),
	}
}

func TestLockUnlockSingleOwner(t *testing.T) {
	for name, m := range managers() {
		g := m.Lock(0, ext(0, 100), Exclusive, 0)
		if g < msg {
			t.Errorf("%s: grant %v before request could arrive", name, g)
		}
		after := m.Unlock(0, ext(0, 100), g+100)
		if after < g+100 {
			t.Errorf("%s: unlock returned %v, before the call time", name, after)
		}
	}
}

func TestNonOverlappingLocksDontWait(t *testing.T) {
	for name, m := range managers() {
		var wg sync.WaitGroup
		grants := make([]sim.VTime, 8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				grants[i] = m.Lock(i, ext(int64(i*100), 100), Exclusive, 0)
			}(i)
		}
		wg.Wait()
		// Nobody waits on a conflict; grants are bounded by message cost
		// plus the service queue (central) or even less (distributed).
		for i, g := range grants {
			if g > 2*msg+8*svc+8*50*sim.Microsecond {
				t.Errorf("%s: owner %d granted at %v, too late for no-conflict", name, i, g)
			}
		}
		for i := 0; i < 8; i++ {
			m.Unlock(i, ext(int64(i*100), 100), grants[i])
		}
	}
}

func TestOverlappingExclusiveSerializes(t *testing.T) {
	for name, m := range managers() {
		// Owner 0 grabs [0,100) and holds it until virtual time 1ms.
		g0 := m.Lock(0, ext(0, 100), Exclusive, 0)
		release := g0 + sim.Millisecond

		done := make(chan sim.VTime)
		go func() {
			// Owner 1 requests an overlapping range; must wait for the
			// release and inherit its virtual time.
			done <- m.Lock(1, ext(50, 100), Exclusive, 0)
		}()
		// Give the waiter a moment to really block.
		time.Sleep(20 * time.Millisecond)
		select {
		case g := <-done:
			t.Fatalf("%s: conflicting lock granted at %v while held", name, g)
		default:
		}
		m.Unlock(0, ext(0, 100), release)
		g1 := <-done
		if g1 < release {
			t.Errorf("%s: second grant %v precedes release %v", name, g1, release)
		}
		m.Unlock(1, ext(50, 100), g1)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	for name, m := range managers() {
		g0 := m.Lock(0, ext(0, 100), Shared, 0)
		done := make(chan sim.VTime)
		go func() { done <- m.Lock(1, ext(0, 100), Shared, 0) }()
		select {
		case g1 := <-done:
			if g1 > sim.Second {
				t.Errorf("%s: shared lock delayed to %v", name, g1)
			}
			m.Unlock(1, ext(0, 100), g1)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: shared lock blocked on shared holder", name)
		}
		m.Unlock(0, ext(0, 100), g0)
	}
}

func TestSharedBlocksExclusive(t *testing.T) {
	m := newCentralForTest()
	g0 := m.Lock(0, ext(0, 100), Shared, 0)
	done := make(chan sim.VTime)
	go func() { done <- m.Lock(1, ext(0, 100), Exclusive, 0) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("exclusive granted alongside shared")
	default:
	}
	m.Unlock(0, ext(0, 100), g0+100)
	<-done
}

func TestUnlockNotHeldPanics(t *testing.T) {
	for name, m := range managers() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			m.Unlock(3, ext(0, 10), 0)
		}()
	}
}

func TestCentralServiceQueueSerializesRequests(t *testing.T) {
	// N simultaneous non-conflicting requests still queue at the central
	// manager: the latest grant is at least N*ServiceTime after arrival.
	m := newCentralForTest()
	const n = 16
	var wg sync.WaitGroup
	grants := make([]sim.VTime, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			grants[i] = m.Lock(i, ext(int64(i*10), 10), Exclusive, 0)
		}(i)
	}
	wg.Wait()
	var latest sim.VTime
	for _, g := range grants {
		if g > latest {
			latest = g
		}
	}
	if want := msg + n*svc + msg; latest < want {
		t.Fatalf("latest grant %v, want >= %v (central queueing)", latest, want)
	}
}

func TestDistributedFastPathAfterFirstAcquisition(t *testing.T) {
	d := newDistributedForTest()
	g1 := d.Lock(0, ext(0, 1000), Exclusive, 0)
	d.Unlock(0, ext(0, 1000), g1)
	// Re-acquiring inside the cached token is nearly free.
	at := g1 + sim.Millisecond
	g2 := d.Lock(0, ext(100, 50), Exclusive, at)
	if g2 > at+10*sim.Microsecond {
		t.Fatalf("fast-path grant at %v, want ~%v", g2, at)
	}
	d.Unlock(0, ext(100, 50), g2)
	local, server, _ := d.Stats()
	if local != 1 || server != 1 {
		t.Fatalf("stats local=%d server=%d, want 1/1", local, server)
	}
}

func TestDistributedRevocationOnConflict(t *testing.T) {
	d := newDistributedForTest()
	g0 := d.Lock(0, ext(0, 1000), Exclusive, 0)
	d.Unlock(0, ext(0, 1000), g0)

	// Owner 1 wants an overlapping range: owner 0's token must be revoked.
	g1 := d.Lock(1, ext(500, 1000), Exclusive, g0)
	_, _, rev := d.Stats()
	if rev != 1 {
		t.Fatalf("revocations = %d, want 1", rev)
	}
	if g1 < g0+msg+svc {
		t.Fatalf("revoking grant at %v, too early", g1)
	}
	d.Unlock(1, ext(500, 1000), g1)

	// Owner 0's token for the overlapped part is gone: next lock there is
	// a server grant again.
	_, serverBefore, _ := d.Stats()
	g2 := d.Lock(0, ext(600, 10), Exclusive, g1)
	_, serverAfter, _ := d.Stats()
	if serverAfter != serverBefore+1 {
		t.Fatal("expected server grant after token revocation")
	}
	d.Unlock(0, ext(600, 10), g2)
}

func TestDistributedKeepsDisjointTokens(t *testing.T) {
	d := newDistributedForTest()
	// Owner 0 holds [0,100); owner 1 takes [200,300): no revocation.
	g0 := d.Lock(0, ext(0, 100), Exclusive, 0)
	d.Unlock(0, ext(0, 100), g0)
	g1 := d.Lock(1, ext(200, 100), Exclusive, 0)
	d.Unlock(1, ext(200, 100), g1)
	_, _, rev := d.Stats()
	if rev != 0 {
		t.Fatalf("revocations = %d, want 0", rev)
	}
	// Both fast-path on re-acquisition.
	d.Unlock(0, ext(0, 100), d.Lock(0, ext(0, 100), Exclusive, g0+sim.Second))
	d.Unlock(1, ext(200, 100), d.Lock(1, ext(200, 100), Exclusive, g1+sim.Second))
	local, _, _ := d.Stats()
	if local != 2 {
		t.Fatalf("local grants = %d, want 2", local)
	}
}

func TestGrantCarriesConflictReleaseTime(t *testing.T) {
	// The virtual grant time of a waiter must be at least the *virtual*
	// release time of the conflicting holder, even though the real wait
	// is instantaneous.
	m := newCentralForTest()
	g0 := m.Lock(0, ext(0, 10), Exclusive, 0)
	farFuture := g0 + 42*sim.Second
	done := make(chan sim.VTime)
	go func() { done <- m.Lock(1, ext(5, 10), Exclusive, 0) }()
	time.Sleep(10 * time.Millisecond)
	m.Unlock(0, ext(0, 10), farFuture)
	if g1 := <-done; g1 < farFuture {
		t.Fatalf("grant %v does not carry release time %v", g1, farFuture)
	}
	m.Unlock(1, ext(5, 10), farFuture+1)
}

func TestModeString(t *testing.T) {
	if Shared.String() != "shared" || Exclusive.String() != "exclusive" {
		t.Fatal("mode strings")
	}
}

func TestManagerNames(t *testing.T) {
	if newCentralForTest().Name() != "central" || newDistributedForTest().Name() != "distributed" {
		t.Fatal("names")
	}
}

func TestHoldersCount(t *testing.T) {
	c := newCentralForTest()
	g := c.Lock(0, ext(0, 10), Exclusive, 0)
	if c.Holders() != 1 {
		t.Fatal("holders != 1")
	}
	c.Unlock(0, ext(0, 10), g)
	if c.Holders() != 0 {
		t.Fatal("holders != 0 after unlock")
	}
}
