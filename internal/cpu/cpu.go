// Package cpu reports the instruction-set extensions the vector kernels of
// this module need, probed once at start-up from what the CPU and the
// operating system report. There is no flag, environment variable or build
// tag: a kernel runs exactly where the hardware has it.
package cpu
