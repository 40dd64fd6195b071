package obs

import (
	"sync/atomic"
	"time"
)

// windowSlots is a Window's ring resolution: the window is this many
// epoch-tagged slots, each covering 1/windowSlots of its span, so totals
// cover the trailing span with one-slot granularity.
const windowSlots = 16

// Window is a rolling time window of three event counters — the one
// sliding-window primitive behind the SLO burn windows and the path
// estimator's loss/goodput windows. It is a fixed ring of epoch-tagged
// slots: a slot expires on read by epoch comparison, so an idle window
// decays to zero with no sweeper goroutine, and a slot whose epoch is
// stale is rotated by CAS on the write path. Lock-free and allocation-free.
//
// Rotation rule: the writer that CASes a slot to a new epoch zeroes its
// counters. A writer holding an instant older than the slot's epoch — a
// lagging goroutine whose slot has already been reused — drops its counts,
// as does one that loses the rotation race to an even newer epoch. A
// concurrent add straddling the rotation can also be wiped. Each is a
// bounded undercount at slot boundaries, tolerated in exchange for the
// lock-free write path.
//
// The zero value is not usable; call Init.
type Window struct {
	slotNs int64
	slots  [windowSlots]windowSlot
}

type windowSlot struct {
	epoch atomic.Int64
	n     [3]atomic.Int64
}

// Init sizes a zero window to span d. The slot width floors at 1 ns, and
// epochs start at -1 so no slot counts before its first write.
func (w *Window) Init(d time.Duration) {
	w.slotNs = int64(d) / windowSlots
	if w.slotNs <= 0 {
		w.slotNs = 1
	}
	for i := range w.slots {
		w.slots[i].epoch.Store(-1)
	}
}

// Span reports the time the window covers.
func (w *Window) Span() time.Duration { return time.Duration(w.slotNs * windowSlots) }

// Add counts a, b and c into the slot for the caller-clock instant nowNs
// (see the rotation rule on Window). Zero counts cost no atomic op.
func (w *Window) Add(nowNs, a, b, c int64) {
	e := nowNs / w.slotNs
	// Index safely for negative epochs: an instant before the clock's zero
	// must not panic (it is then dropped as older than the initial epoch).
	s := &w.slots[int(e%windowSlots+windowSlots)%windowSlots]
	if cur := s.epoch.Load(); cur != e {
		if cur > e {
			return // stale write from a lagging writer; its slot is gone
		}
		if s.epoch.CompareAndSwap(cur, e) {
			for j := range s.n {
				s.n[j].Store(0)
			}
		} else if s.epoch.Load() != e {
			return
		}
	}
	if a != 0 {
		s.n[0].Add(a)
	}
	if b != 0 {
		s.n[1].Add(b)
	}
	if c != 0 {
		s.n[2].Add(c)
	}
}

// Totals sums each counter over the slots still inside the window as of
// nowNs. Expiry is purely epoch arithmetic: a slot whose epoch fell out of
// the trailing windowSlots contributes nothing.
func (w *Window) Totals(nowNs int64) (a, b, c int64) {
	cur := nowNs / w.slotNs
	min := cur - windowSlots + 1
	for i := range w.slots {
		s := &w.slots[i]
		if e := s.epoch.Load(); e >= min && e <= cur {
			a += s.n[0].Load()
			b += s.n[1].Load()
			c += s.n[2].Load()
		}
	}
	return a, b, c
}
