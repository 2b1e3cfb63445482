// Package fixture is the deliberately-broken eventorder fixture: a
// machine fan-out written with go statements instead of internal/par,
// so each go statement must be flagged.
package fixture

import "sync"

type machine struct{ frontier float64 }

func (m *machine) advanceTo(t float64) { m.frontier = t }

// advanceAll starts one goroutine per machine and joins them by hand.
func advanceAll(ms []*machine, t float64) {
	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func() { // want `go statement in a session package`
			defer wg.Done()
			m.advanceTo(t)
		}()
	}
	wg.Wait()
}

// advanceLater never joins the goroutine it starts.
func advanceLater(m *machine, t float64) {
	go m.advanceTo(t) // want `go statement in a session package`
}
