package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerFD is a Linux timerfd read through the runtime's poller: a
// sleep on it parks only the calling goroutine and wakes with the
// kernel's high-resolution timer, where runtime timers can overshoot
// sub-millisecond sleeps by up to a millisecond and a blocking
// nanosleep holds the goroutine's processor until the scheduler takes
// it back.
type timerFD struct {
	fd int
	f  *os.File
}

func newTimerFD() (*timerFD, error) {
	const clockMonotonic = 1
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, os.NewSyscallError("timerfd_create", e)
	}
	return &timerFD{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep returns once d has passed.
func (t *timerFD) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero: one shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&spec[0])), 0, 0, 0); e != 0 {
		return os.NewSyscallError("timerfd_settime", e)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *timerFD) close() error { return t.f.Close() }
