package rng

import "rayfade/internal/cpu"

// vecKernel reports whether FillOpen's vector kernel runs on this CPU: it
// needs AVX-512 F and DQ, probed once at start-up by package cpu.
var vecKernel = cpu.AVX512

// minVecLen is the shortest dst the kernel takes. Below it the call and
// set-up cost more than they save: 8 draws took 25 ns by the kernel and
// 20 ns by the Go loop, 16 draws 30 ns and 36 ns.
const minVecLen = 16

// fillOpenVec draws a prefix of dst, in whole vectors of eight, with the
// AVX-512 kernel where the CPU has one, and returns its length; FillOpen's
// Go loop draws the rest from the state it leaves.
func (s *Source) fillOpenVec(dst []float64) int {
	if !vecKernel || len(dst) < minVecLen {
		return 0
	}
	return fillOpenAVX512(s, dst)
}

// fillOpenAVX512 draws dst[:len(dst)&^7] in chunks of at most 64: first
// it steps the state and stores each raw s1 word, then it scrambles and
// converts eight words per instruction. It writes the state back after a
// chunk only when no draw in it was zero; otherwise it returns the count
// drawn before that chunk, with *s at the chunk's start.
//
//go:noescape
func fillOpenAVX512(s *Source, dst []float64) int
