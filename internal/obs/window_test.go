package obs

import (
	"testing"
	"time"
)

// TestWindowRotation pins the slot-expiry arithmetic directly.
func TestWindowRotation(t *testing.T) {
	var w Window
	w.Init(windowSlots * time.Second)
	w.Add(int64(time.Second), 10, 1, 1000)
	if a, l, b := w.Totals(int64(time.Second)); a != 10 || l != 1 || b != 1000 {
		t.Fatalf("totals = %d/%d/%d", a, l, b)
	}
	// Still visible 15 slots later, gone at 16.
	if a, _, _ := w.Totals(int64(16 * time.Second)); a != 10 {
		t.Errorf("slot expired early: acked=%d", a)
	}
	if a, _, _ := w.Totals(int64(17 * time.Second)); a != 0 {
		t.Errorf("slot survived expiry: acked=%d", a)
	}
	// Re-observing a recycled slot resets it.
	w.Add(int64(17*time.Second), 3, 0, 300)
	if a, l, b := w.Totals(int64(17 * time.Second)); a != 3 || l != 0 || b != 300 {
		t.Errorf("recycled slot totals = %d/%d/%d", a, l, b)
	}
}

// TestWindowGuards pins the rotation rule's edges: a write older than its
// slot's epoch is dropped, a negative instant neither panics nor counts
// (it is older than every slot's initial epoch), and a span shorter than
// windowSlots ns still gets a 1 ns slot.
func TestWindowGuards(t *testing.T) {
	var w Window
	w.Init(windowSlots * time.Second)
	w.Add(int64(17*time.Second), 1, 0, 0)
	// 1 s maps to the slot 17 s now owns: the stale write must not land.
	w.Add(int64(time.Second), 5, 5, 5)
	if a, l, b := w.Totals(int64(17 * time.Second)); a != 1 || l != 0 || b != 0 {
		t.Errorf("stale write counted: totals = %d/%d/%d", a, l, b)
	}

	var neg Window
	neg.Init(windowSlots * time.Second)
	neg.Add(int64(-3*time.Second), 2, 0, 0)
	if a, _, _ := neg.Totals(int64(-3 * time.Second)); a != 0 {
		t.Errorf("negative-instant write counted: acked=%d", a)
	}
	// Before the first write no slot counts, even at instant -1 slot.
	var fresh Window
	fresh.Init(time.Second)
	if a, l, b := fresh.Totals(-1); a != 0 || l != 0 || b != 0 {
		t.Errorf("fresh window totals = %d/%d/%d", a, l, b)
	}

	var tiny Window
	tiny.Init(1)
	if tiny.Span() != windowSlots {
		t.Errorf("tiny span = %v, want %d ns", tiny.Span(), windowSlots)
	}
	tiny.Add(5, 1, 0, 0)
	if a, _, _ := tiny.Totals(5); a != 1 {
		t.Errorf("tiny window lost its write: %d", a)
	}
}
