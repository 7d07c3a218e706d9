package load

import (
	"syscall"
	"time"
)

// sleep blocks the calling thread in nanosleep. The runtime's own timers
// wake an idle process on a millisecond grid (its poller waits in whole
// milliseconds), which would add most of a millisecond to every open-loop
// request; nanosleep overshoots by tens of microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
