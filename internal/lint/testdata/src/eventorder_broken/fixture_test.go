package fixture

import "testing"

// Test files are in scope too: a test that races its own machines
// proves nothing about the serial order.
func TestAdvance(t *testing.T) {
	done := make(chan struct{})
	go func() { // want `go statement in a session package`
		advanceAll([]*machine{{}}, 1)
		close(done)
	}()
	<-done
}
