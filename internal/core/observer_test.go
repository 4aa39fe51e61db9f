package core

import (
	"fmt"
	"slices"
	"testing"

	"rths/internal/regret"
	"rths/internal/xrand"
)

// tagObserver is a comparable StageObserver: ObserveStage appends its tag
// to a shared log, so the log records which observers a stage reached and
// in what order. Two tagObservers with the same tag and log are equal
// interface values.
type tagObserver struct {
	tag, m int
	log    *[]int
}

func (o tagObserver) Select(r *xrand.Rand) int  { return r.Intn(o.m) }
func (o tagObserver) Update(int, float64) error { return nil }
func (o tagObserver) NumActions() int           { return o.m }
func (o tagObserver) ObserveStage(StageResult)  { *o.log = append(*o.log, o.tag) }

// RemovePeer drops exactly the departing peer's observer entry: after
// removals at the front, middle and end of a population mixing learners
// and observers — including two peers holding equal observer values —
// each stage reaches exactly the surviving observers, in peer order.
func TestRemovePeerKeepsObserversInPeerOrder(t *testing.T) {
	const helpers = 3
	var log []int
	// tags mirrors the peer list: an observer's tag, or -1 for a learner.
	tags := []int{1, -1, 2, 7, 7, -1, 3, 4, -1, 5}
	cfg := defaultConfig(len(tags), helpers, 5)
	cfg.Factory = func(peer, m int, _ float64) (Selector, error) {
		if tags[peer] < 0 {
			return regret.New(regret.Defaults(m, 1))
		}
		return tagObserver{tag: tags[peer], m: m, log: &log}, nil
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		log = log[:0]
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		var want []int
		for _, tag := range tags {
			if tag >= 0 {
				want = append(want, tag)
			}
		}
		if !slices.Equal(log, want) {
			t.Fatalf("%s: stage reached observers %v, want %v", when, log, want)
		}
	}
	check("initial")
	remove := func(i int) {
		t.Helper()
		if err := s.RemovePeer(i); err != nil {
			t.Fatal(err)
		}
		tags = slices.Delete(tags, i, i+1)
		check(fmt.Sprintf("after removing peer %d", i))
	}
	remove(0)             // front observer
	remove(len(tags) - 1) // end observer
	remove(3)             // the second of the equal pair
	remove(3)             // a learner in the middle
	if _, err := s.AddPeer(tagObserver{tag: 9, m: helpers, log: &log}, 0); err != nil {
		t.Fatal(err)
	}
	tags = append(tags, 9)
	check("after a join")
	remove(2) // the remaining one of the equal pair
	remove(0) // a learner at the front
	for len(tags) > 0 {
		remove(len(tags) / 2)
	}
}
