// Package fixture is the fixed twin of eventorder_tenant_broken: the
// calling goroutine drains the per-machine record buffers in fleet
// order, so the analyzer must stay quiet.
package fixture

import "qcloud/internal/trace"

func drain(tr *trace.Trace, perMach [][]*trace.Job) {
	for _, buf := range perMach {
		tr.Jobs = append(tr.Jobs, buf...)
	}
}
