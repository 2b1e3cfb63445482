package fixture

import "testing"

func TestAdvance(t *testing.T) {
	ms := []*machine{{}, {}}
	advanceAll(ms, 1)
	if ms[1].frontier != 1 {
		t.Fatal("machine not advanced")
	}
}
