// Package fixture is the deliberately-broken tenant eventorder
// fixture: a broker-shaped drain that hands each machine's record
// buffer to its own goroutine, so the merge order into the tenant
// trace depends on the scheduler and the go statement must be flagged.
package fixture

import "qcloud/internal/trace"

func drainAsync(tr *trace.Trace, perMach [][]*trace.Job) {
	bufs := make(chan []*trace.Job)
	for _, buf := range perMach {
		go func() { bufs <- buf }() // want `go statement in a session package`
	}
	for range perMach {
		tr.Jobs = append(tr.Jobs, <-bufs...)
	}
}
