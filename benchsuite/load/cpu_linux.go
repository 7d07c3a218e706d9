package load

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuSet is the kernel's CPU affinity mask.
type cpuSet [16]uint64

func getAffinity(set *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if e != 0 {
		return e
	}
	return nil
}

func setAffinity(set *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if e != 0 {
		return e
	}
	return nil
}

// usableCPUs lists up to n of the CPUs the process may run on, or just -1
// (any CPU) when the affinity mask cannot be read.
func usableCPUs(n int) []int {
	var set cpuSet
	if getAffinity(&set) != nil {
		return []int{-1}
	}
	var out []int
	for cpu := 0; cpu < len(set)*64 && len(out) < n; cpu++ {
		if set[cpu/64]&(1<<(cpu%64)) != 0 {
			out = append(out, cpu)
		}
	}
	return out
}

// onCPU runs f on a thread bound to cpu, then restores the thread's
// affinity. With cpu -1, or when the binding fails, f runs unbound.
func onCPU(cpu int, f func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old cpuSet
	if cpu < 0 || getAffinity(&old) != nil {
		f()
		return
	}
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	if setAffinity(&one) != nil {
		f()
		return
	}
	defer setAffinity(&old)
	f()
}
