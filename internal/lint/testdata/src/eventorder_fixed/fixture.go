// Package fixture is the fixed twin of eventorder_broken: the same
// fan-out through par.ForEach, so the analyzer must stay quiet.
package fixture

import "qcloud/internal/par"

type machine struct{ frontier float64 }

func (m *machine) advanceTo(t float64) { m.frontier = t }

func advanceAll(ms []*machine, t float64) {
	par.ForEach(len(ms), 0, func(i int) { ms[i].advanceTo(t) })
}
