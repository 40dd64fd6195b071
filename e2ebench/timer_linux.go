package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// fineTimer sleeps with microsecond precision. Go's timers wake about
// half a millisecond late on Linux (the runtime's poller waits in whole
// milliseconds), which would make generator lateness, not the system,
// dominate a sub-millisecond input-to-paint time. A timerfd read instead
// parks the goroutine in the runtime poller, which wakes it when the
// kernel's high-resolution timer fires, and holds no scheduler slot while
// waiting.
type fineTimer struct {
	f  *os.File
	fd uintptr
}

func newFineTimer() (*fineTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &fineTimer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks for d.
func (t *fineTimer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero: one-shot), it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *fineTimer) Close() error { return t.f.Close() }
