package lock

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"atomio/internal/interval"
	"atomio/internal/sim"
)

// TestWakeHeapPopsInTicketSeqOrder pins the heap to a sort oracle on random
// (ticket, seq) mixes, including heavy ticket ties where seq decides.
func TestWakeHeapPopsInTicketSeqOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for round := 0; round < 50; round++ {
		n := r.Intn(200)
		type key struct {
			ticket sim.VTime
			seq    int64
		}
		var want []key
		var h wakeHeap[key]
		for i := 0; i < n; i++ {
			k := key{ticket: sim.VTime(r.Intn(8)), seq: int64(r.Intn(1000))}
			want = append(want, k)
			h.push(k.ticket, k.seq, k)
			// Interleave pops to exercise mixed push/pop orders.
			if r.Intn(4) == 0 && h.len() > 0 {
				got, _ := h.pop()
				// Re-push so the final drain still sees every key.
				h.push(got.ticket, got.seq, got)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].ticket != want[j].ticket {
				return want[i].ticket < want[j].ticket
			}
			return want[i].seq < want[j].seq
		})
		for i, w := range want {
			got, ok := h.pop()
			if !ok {
				t.Fatalf("round %d: heap empty at %d/%d", round, i, n)
			}
			if got != w {
				t.Fatalf("round %d: pop %d = %+v, want %+v", round, i, got, w)
			}
		}
		if _, ok := h.pop(); ok {
			t.Fatalf("round %d: heap not drained", round)
		}
	}
}

// massWakeupOrder blocks n exclusive waiters with shuffled tickets behind
// one held lock, releases it, and returns the order in which the waiters
// were granted as each one releases in turn — the cascading mass wakeup the
// heap exists for.
func massWakeupOrder(t *testing.T, tbl *table, n int) []int {
	t.Helper()
	e := interval.Extent{Off: 0, Len: 100}
	tbl.acquire(999, e, Exclusive, 0)

	tickets := rand.New(rand.NewSource(int64(n))).Perm(n)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(owner int) {
			defer wg.Done()
			tbl.acquire(owner, e, Exclusive, sim.VTime(1000+tickets[owner]))
			mu.Lock()
			order = append(order, tickets[owner])
			mu.Unlock()
			if err := tbl.release(owner, e, sim.VTime(2000+len(order))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for tbl.waiters() < n {
	}
	if err := tbl.release(999, e, 500); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return order
}

// TestMassWakeupGrantsInTicketOrder pins the heap-based release hand-off to
// the table's deterministic contract: overlapping exclusive waiters are
// granted strictly in ticket order.
func TestMassWakeupGrantsInTicketOrder(t *testing.T) {
	const n = 60
	order := massWakeupOrder(t, newTable(), n)
	if len(order) != n {
		t.Fatalf("%d grants, want %d", len(order), n)
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("grant order %v not in ticket order at %d", order, i)
		}
	}
}

// BenchmarkMassWakeup measures a release fanning out to m shared waiters
// blocked behind one exclusive lock — the mass-wakeup path the (ticket,
// seq) heap makes O(m log m) instead of the old O(m²) candidate rescan.
func BenchmarkMassWakeup(b *testing.B) {
	for _, m := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("waiters=%d", m), func(b *testing.B) {
			e := interval.Extent{Off: 0, Len: 1 << 20}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tbl := newTable()
				tbl.acquire(0, e, Exclusive, 0)
				var wg sync.WaitGroup
				for w := 0; w < m; w++ {
					wg.Add(1)
					go func(owner int) {
						defer wg.Done()
						tbl.acquire(owner, e, Shared, sim.VTime(owner))
					}(1 + w)
				}
				for tbl.waiters() < m {
				}
				b.StartTimer()
				if err := tbl.release(0, e, 1); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
			}
		})
	}
}
