//go:build !linux

package main

import "time"

// fineTimer falls back to the runtime's timers where timerfd is missing;
// generator lateness then includes their coarser wake-up.
type fineTimer struct{}

func newFineTimer() (*fineTimer, error) { return &fineTimer{}, nil }

func (t *fineTimer) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (t *fineTimer) Close() error { return nil }
