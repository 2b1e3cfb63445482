//go:build !amd64 || amd64.v3

package qsim

import "qcloud/internal/circuit"

// hasAVX2 is false off amd64, and under GOAMD64=v3, where the compiler
// fuses the Go loops' multiply-adds and unfused assembly lanes would
// make an amplitude depend on where a shard cuts its run: the Go loops
// in qsim.go are the only path, and the compiler drops the calls below
// as dead code.
const hasAVX2 = false

func run1Q(re, im *float64, bit, n int, m *circuit.Mat2)           { panic("qsim: no run kernels") }
func run1QReal(re, im *float64, bit, n int, m *circuit.Mat2)       { panic("qsim: no run kernels") }
func run2Q(re, im *float64, b0, b1, n int, tab *[32][4]float64)    { panic("qsim: no run kernels") }
func runSwap(re, im *float64, p, q, n int)                         { panic("qsim: no run kernels") }
func run1QLow(re, im *float64, bit, n int, tab *[4][4]float64)     { panic("qsim: no run kernels") }
func run1QLowReal(re, im *float64, bit, n int, tab *[4][4]float64) { panic("qsim: no run kernels") }
