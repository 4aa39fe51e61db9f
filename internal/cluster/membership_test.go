package cluster

import (
	"fmt"
	"testing"

	"rths/internal/core"
	"rths/internal/xrand"
)

// checkMembership verifies the director's location records: every active
// id round-trips through its channel's member list (ChannelPeerIDs(ch)
// [local] == id), the id-ordered zapping list holds exactly the active
// viewers in ascending id, and the audiences add up to ActivePeers.
func checkMembership(t *testing.T, c *Cluster, when string) {
	t.Helper()
	sum := 0
	for ci := 0; ci < c.NumChannels(); ci++ {
		ids := c.ChannelPeerIDs(ci)
		if len(ids) != c.ChannelAudience(ci) {
			t.Fatalf("%s: channel %d lists %d ids for audience %d", when, ci, len(ids), c.ChannelAudience(ci))
		}
		sum += len(ids)
		for local, id := range ids {
			if v := c.byPeer[id]; v == nil || v.id != id || v.channel != ci || v.local != local {
				t.Fatalf("%s: viewer %d at channel %d local %d has record %+v", when, id, ci, local, v)
			}
		}
	}
	if sum != c.ActivePeers() {
		t.Fatalf("%s: audiences sum to %d, ActivePeers %d", when, sum, c.ActivePeers())
	}
	if len(c.viewers) != c.ActivePeers() {
		t.Fatalf("%s: zapping list holds %d viewers, ActivePeers %d", when, len(c.viewers), c.ActivePeers())
	}
	for i, v := range c.viewers {
		if i > 0 && c.viewers[i-1].id >= v.id {
			t.Fatalf("%s: zapping list out of id order at %d", when, i)
		}
		if c.byPeer[v.id] != v || c.ChannelPeerIDs(v.channel)[v.local] != v.id {
			t.Fatalf("%s: viewer %d does not round-trip", when, v.id)
		}
	}
}

// TestMembershipInvariantUnderRandomChurn runs a seeded random mix of
// Join, Leave, Switch, scenario joins and zapping stages on both backends
// and checks the location records after every operation. After each stage
// the backend's per-peer results must also cover exactly each audience.
func TestMembershipInvariantUnderRandomChurn(t *testing.T) {
	for _, backend := range []BackendKind{BackendMemory, BackendDistsim} {
		c, err := New(fourChannelConfig(83, backend))
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(97)
		nextID := 1 << 20
		randomViewer := func() int { return c.viewers[r.Intn(len(c.viewers))].id }
		checkMembership(t, c, "initial")
		for op := 0; op < 600; op++ {
			var err error
			var what string
			switch k := r.Intn(10); {
			case k < 2:
				what = fmt.Sprintf("join %d", nextID)
				err = c.Join(nextID, r.Intn(c.NumChannels()))
				nextID++
			case k < 3:
				what = "scenario join"
				err = c.join(r.Intn(c.NumChannels()))
			case k < 5 && c.ActivePeers() > 0:
				id := randomViewer()
				what = fmt.Sprintf("leave %d", id)
				err = c.Leave(id)
			case k < 8 && c.ActivePeers() > 0:
				id := randomViewer()
				what = fmt.Sprintf("switch %d", id)
				err = c.Switch(id, r.Intn(c.NumChannels()))
			default:
				what = "stage"
				_, err = c.StepStage()
				for ci := 0; ci < c.NumChannels() && err == nil; ci++ {
					if got := len(c.ChannelStageResult(ci).Actions); got != c.ChannelAudience(ci) {
						t.Fatalf("backend %v op %d: channel %d stepped %d peers, audience %d",
							backend, op, ci, got, c.ChannelAudience(ci))
					}
				}
			}
			if err != nil {
				t.Fatalf("backend %v op %d (%s): %v", backend, op, what, err)
			}
			checkMembership(t, c, fmt.Sprintf("backend %v op %d (%s)", backend, op, what))
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkClusterSwitch measures one viewer zapping out of a channel of
// n viewers and back, taken from the middle of the channel (the average
// position a Markov zap removes). The move rewrites the local index of
// each later viewer's record and shifts the backend's peer arrays; it
// writes no map entry per shifted viewer.
func BenchmarkClusterSwitch(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("viewers=%d", n), func(b *testing.B) {
			c, err := New(Config{
				Channels: []ChannelSpec{
					{Name: "src", Bitrate: 500, InitialPeers: n},
					{Name: "dst", Bitrate: 500, InitialPeers: 1},
				},
				Helpers: UniformHelpers(4, core.DefaultHelperSpec()),
				Seed:    1,
			})
			if err != nil {
				b.Fatal(err)
			}
			src := c.channels[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := src.members[n/2].id
				if err := c.Switch(id, 1); err != nil {
					b.Fatal(err)
				}
				if err := c.Switch(id, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
