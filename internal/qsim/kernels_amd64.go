//go:build amd64 && !amd64.v3

package qsim

import "qcloud/internal/circuit"

// hasAVX2 selects the assembly run kernels of kernels_amd64.s: the
// sweeps in qsim.go hand them the first (last-first)&^3 elements of
// each innermost run (for qubits 0 and 1, whose runs are shorter than
// four lanes, the 4-aligned body of the sweep) and finish the rest —
// and everything on a host without AVX2 — in their scalar loops. Set
// once at init from CPUID/XGETBV; only TestAVX2RunsMatchGo writes it
// afterwards.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// The run kernels update n amplitudes (n > 0, a multiple of 4) of each
// stream, starting at re/im; the partner streams lie bit (or b0, b1,
// b0+b1, or p and q) elements on. tab holds each matrix scalar
// replicated into four lanes: entry k is the real part of Mat4 element
// k, entry 16+k its imaginary part.

//go:noescape
func run1Q(re, im *float64, bit, n int, m *circuit.Mat2)

//go:noescape
func run1QReal(re, im *float64, bit, n int, m *circuit.Mat2)

//go:noescape
func run2Q(re, im *float64, b0, b1, n int, tab *[32][4]float64)

// runSwap exchanges, at each of n positions, the elements p and q on.
//
//go:noescape
func runSwap(re, im *float64, p, q, n int)

// The in-register kernels sweep qubit 0 or 1 (bit 1 or 2) over n
// amplitudes from a 4-aligned start: each group of four holds whole
// pairs, and tab (see lowLanes) gives every lane its own coefficients.

//go:noescape
func run1QLow(re, im *float64, bit, n int, tab *[4][4]float64)

//go:noescape
func run1QLowReal(re, im *float64, bit, n int, tab *[4][4]float64)
