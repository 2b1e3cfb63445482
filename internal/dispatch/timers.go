package dispatch

import "time"

// timer is a wake-up hint: task seq may have something due at at (a
// lease deadline or a backoff gate). The task's own fields decide what,
// if anything, is due — entries are never removed or updated when a
// task changes, only checked when they surface.
type timer struct {
	at  time.Time
	seq int64
}

func (a timer) before(b timer) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

// timerHeap is a (time, seq) min-heap. Hand-rolled rather than
// container/heap so a push does not box the entry.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the earliest entry; the heap must be
// non-empty.
func (h *timerHeap) pop() timer {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && s[l].before(s[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && s[r].before(s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}
