// Package qcloud reproduces "Quantum Computing in the Cloud: Analyzing
// job and machine characteristics" (IISWC 2021) as a Go library: a
// quantum-circuit IR and Qiskit-style transpiler, machine/calibration
// models of the IBM fleet, a noisy state-vector simulator, a
// discrete-event cloud simulator with fair-share queues and background
// load, a two-year synthetic workload, and analyses regenerating every
// figure of the paper. See README.md and DESIGN.md.
//
// The root package exists only to anchor the design-choice ablations
// in ablation_test.go; all functionality lives under internal/, and
// every timing is produced by the harness in bench/.
package qcloud
