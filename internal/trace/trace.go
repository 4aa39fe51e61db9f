// Package trace generates the synthetic workloads the multi-channel
// experiments replay: Zipf-distributed channel popularity (the standard
// model for P2P streaming channel audiences), Poisson peer arrivals,
// exponential session lifetimes, and channel-switching events. The paper
// evaluates on synthetic workloads too; this package makes those workloads
// explicit, seedable and replayable.
package trace

import (
	"fmt"
	"math"

	"rths/internal/xrand"
)

// EventKind discriminates churn events.
type EventKind int

// Event kinds.
const (
	// Join is a peer arriving and joining a channel.
	Join EventKind = iota + 1
	// Leave is a peer departing the system.
	Leave
	// Switch is a peer moving to a different channel.
	Switch
)

func (k EventKind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one churn event at a stage.
type Event struct {
	Stage   int
	Kind    EventKind
	PeerID  int
	Channel int // target channel for Join/Switch; previous channel for Leave
}

// ChurnConfig parameterizes workload generation.
type ChurnConfig struct {
	// Horizon is the number of stages to generate events for.
	Horizon int
	// ArrivalRate is the expected number of peer arrivals per stage.
	ArrivalRate float64
	// MeanLifetime is the expected session length in stages.
	MeanLifetime float64
	// Channels is the number of live channels (>= 1).
	Channels int
	// ZipfS is the popularity skew exponent (0 = uniform).
	ZipfS float64
	// SwitchRate is the per-stage probability that an active peer switches
	// channels (0 disables switching).
	SwitchRate float64
	// Seed drives generation.
	Seed uint64
}

func (c ChurnConfig) validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("trace: Horizon=%d", c.Horizon)
	}
	if c.ArrivalRate < 0 {
		return fmt.Errorf("trace: ArrivalRate=%g", c.ArrivalRate)
	}
	if c.MeanLifetime <= 0 {
		return fmt.Errorf("trace: MeanLifetime=%g", c.MeanLifetime)
	}
	if c.Channels <= 0 {
		return fmt.Errorf("trace: Channels=%d", c.Channels)
	}
	if c.ZipfS < 0 {
		return fmt.Errorf("trace: ZipfS=%g", c.ZipfS)
	}
	if c.SwitchRate < 0 || c.SwitchRate >= 1 {
		return fmt.Errorf("trace: SwitchRate=%g outside [0,1)", c.SwitchRate)
	}
	return nil
}

// Workload is a generated, replayable churn trace.
type Workload struct {
	// Events are sorted by stage (ties: leaves before switches before
	// joins, then by peer id) so replays are deterministic. The tie-break
	// matches GenerateChurn's own within-stage sequencing — departures,
	// then channel zaps among the survivors, then arrivals — so applying
	// events in slice order reproduces the generator's causal order.
	Events []Event
	// Peak is the maximum number of concurrently active peers.
	Peak int
	// FinalActive is the number of peers active at the horizon.
	FinalActive int
}

// GenerateChurn produces a workload trace from the config.
func GenerateChurn(cfg ChurnConfig) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := xrand.New(cfg.Seed)
	zipf := xrand.NewZipf(r, cfg.ZipfS, cfg.Channels)

	// Sessions get increasing ids, so channel[id] is the session table,
	// active lists the live ids in ascending order, and departs[s] lists
	// the ids leaving at stage s, also ascending (they were appended in
	// arrival order). Each stage is emitted already in Workload.Events
	// order — leaves, switches, joins, each by ascending id — so neither
	// a map walk nor a sort is needed.
	var events []Event
	var channel []int
	var active []int
	departs := make([][]int, cfg.Horizon)
	peak := 0
	for stage := 0; stage < cfg.Horizon; stage++ {
		// Departures scheduled for this stage.
		if leaving := departs[stage]; len(leaving) > 0 {
			for _, id := range leaving {
				events = append(events, Event{Stage: stage, Kind: Leave, PeerID: id, Channel: channel[id]})
				channel[id] = -1
			}
			departs[stage] = nil
			n := 0
			for _, id := range active {
				if channel[id] >= 0 {
					active[n] = id
					n++
				}
			}
			active = active[:n]
		}
		// Channel switches.
		if cfg.SwitchRate > 0 && cfg.Channels > 1 {
			for _, id := range active {
				if r.Float64() < cfg.SwitchRate {
					to := zipf.Draw() - 1
					if to == channel[id] {
						continue
					}
					channel[id] = to
					events = append(events, Event{Stage: stage, Kind: Switch, PeerID: id, Channel: to})
				}
			}
		}
		// Arrivals.
		for a := r.Poisson(cfg.ArrivalRate); a > 0; a-- {
			ch := zipf.Draw() - 1
			life := int(r.Exp(1/cfg.MeanLifetime)) + 1
			id := len(channel)
			channel = append(channel, ch)
			active = append(active, id)
			// depart > stage also rules out int overflow from an
			// enormous lifetime draw: such a session never leaves.
			if depart := stage + life; depart > stage && depart < cfg.Horizon {
				departs[depart] = append(departs[depart], id)
			}
			events = append(events, Event{Stage: stage, Kind: Join, PeerID: id, Channel: ch})
		}
		if len(active) > peak {
			peak = len(active)
		}
	}
	return &Workload{Events: events, Peak: peak, FinalActive: len(active)}, nil
}

// OffsetPeerIDs shifts every event's peer id by base. Use it when the
// replaying system has pre-seeded peers occupying the low ids.
func (w *Workload) OffsetPeerIDs(base int) {
	for i := range w.Events {
		w.Events[i].PeerID += base
	}
}

// PerStage groups the workload's events by stage for replay: out[s] holds
// the events of stage s.
func (w *Workload) PerStage(horizon int) [][]Event {
	out := make([][]Event, horizon)
	for _, e := range w.Events {
		if e.Stage >= 0 && e.Stage < horizon {
			out[e.Stage] = append(out[e.Stage], e)
		}
	}
	return out
}

// ChannelDemand is a static popularity snapshot: expected audience share
// per channel under the Zipf exponent.
func ChannelDemand(channels int, zipfS float64) ([]float64, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("trace: channels=%d", channels)
	}
	if zipfS < 0 {
		return nil, fmt.Errorf("trace: zipfS=%g", zipfS)
	}
	out := make([]float64, channels)
	total := 0.0
	for k := 1; k <= channels; k++ {
		out[k-1] = 1 / math.Pow(float64(k), zipfS)
		total += out[k-1]
	}
	for i := range out {
		out[i] /= total
	}
	return out, nil
}
