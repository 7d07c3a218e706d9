package fading

import "rayfade/internal/cpu"

// sumKernel reports whether coarseSum runs coarseSumAVX512: on CPUs with
// AVX-512 F and DQ, probed once at start-up by package cpu. Tests clear it
// to cover the Go loop on such CPUs too.
var sumKernel = cpu.AVX512

// coarseSumAVX512 is coarseSum eight senders at a time: each lane sums the
// terms of every eighth place from zero, then the lanes are added pairwise
// in three levels and the noise last. Every j in idx must index row.
//
//go:noescape
func coarseSumAVX512(row []float64, idx []int, u []float64, skip int, noise float64) (sum, gains float64)
