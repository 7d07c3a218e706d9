//go:build !linux

package load

func usableCPUs(int) []int { return []int{-1} }

func onCPU(_ int, f func()) { f() }
