package tenant

import (
	"strings"
	"testing"
)

func deservedOf(t *testing.T, qs []*queueState, name string) float64 {
	t.Helper()
	for _, q := range qs {
		if q.cfg.Name == name {
			return q.deserved
		}
	}
	t.Fatalf("queue %q not found", name)
	return 0
}

// TestResolveTreeFlat: shares normalize over the sum of the weights.
func TestResolveTreeFlat(t *testing.T) {
	qs, _, err := resolveTree([]QueueConfig{
		{Name: "big", Share: 3},
		{Name: "small", Share: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := deservedOf(t, qs, "big"); got != 0.75 {
		t.Fatalf("big deserved = %g, want 0.75", got)
	}
	if got := deservedOf(t, qs, "small"); got != 0.25 {
		t.Fatalf("small deserved = %g, want 0.25", got)
	}
}

// TestResolveTreeDefaultShare: zero shares default to weight 1.
func TestResolveTreeDefaultShare(t *testing.T) {
	qs, _, err := resolveTree([]QueueConfig{{Name: "x"}, {Name: "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := deservedOf(t, qs, "x"); got != 0.5 {
		t.Fatalf("defaulted share deserved = %g, want 0.5", got)
	}
}

// TestResolveTreeErrors: every malformed tree is rejected with a
// mention of the offending queue.
func TestResolveTreeErrors(t *testing.T) {
	cases := []struct {
		name string
		cfgs []QueueConfig
		frag string
	}{
		{"empty", nil, "no queues"},
		{"unnamed", []QueueConfig{{Name: ""}}, "empty name"},
		{"negative", []QueueConfig{{Name: "a", Share: -1}}, "negative"},
		{"dup", []QueueConfig{{Name: "a"}, {Name: "a"}}, "duplicate"},
	}
	for _, tc := range cases {
		_, _, err := resolveTree(tc.cfgs)
		if err == nil {
			t.Fatalf("%s: resolveTree accepted a malformed tree", tc.name)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}
