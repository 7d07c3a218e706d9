//go:build !linux

package load

import "time"

func sleep(d time.Duration) { time.Sleep(d) }
