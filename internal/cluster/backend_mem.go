package cluster

import (
	"fmt"

	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/fanout"
	"rths/internal/streaming"
)

// memChannel is one live channel's execution state on the shared-memory
// backend. During the parallel stage phase exactly one worker touches a
// channel, so the per-stage output slot needs no synchronization.
type memChannel struct {
	name    string
	bitrate float64
	sys     *core.System
	bufs    []*streaming.Buffer
	last    core.StageResult // most recent stage view (aliases sys buffers)
	err     error
}

// memBackend steps channels as shared-memory core.Systems, channel ci on
// worker ci mod Workers. The workers run on goroutines through fanout.Run
// when there are at least as many channels as workers; otherwise, and at
// GOMAXPROCS=1, they run inline. Channels never share state within a
// stage, so the fan-out has no effect on results — only on wall-clock.
type memBackend struct {
	channels []*memChannel
	workers  int
	factory  core.SelectorFactory
	scale    float64
	startup  float64
	// out is the current stage's output slots, and workerFn the bound
	// stepWorker, hoisted so an inline stage allocates nothing.
	out      []stageData
	workerFn func(k int)
}

func newMemBackend(cfg Config, assign []int, seeds []uint64, scale, startup float64) (*memBackend, error) {
	b := &memBackend{
		workers: max(cfg.Workers, 1),
		factory: cfg.Factory,
		scale:   scale,
		startup: startup,
	}
	b.workerFn = b.stepWorker
	for ci, spec := range cfg.Channels {
		var pool []core.HelperSpec
		for h, target := range assign {
			if target == ci {
				pool = append(pool, cfg.Helpers[h])
			}
		}
		sys, err := core.New(core.Config{
			NumPeers:      spec.InitialPeers,
			Helpers:       pool,
			Factory:       cfg.Factory,
			Seed:          seeds[ci],
			DemandPerPeer: spec.Bitrate,
			UtilityScale:  scale,
			ViewSize:      cfg.ViewSize,
			ViewRefresh:   cfg.ViewRefresh,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: channel %q: %w", spec.Name, err)
		}
		st := &memChannel{name: spec.Name, bitrate: spec.Bitrate, sys: sys}
		for i := 0; i < spec.InitialPeers; i++ {
			buf, err := streaming.NewBuffer(spec.Bitrate, startup)
			if err != nil {
				return nil, fmt.Errorf("cluster: channel %q buffer: %w", spec.Name, err)
			}
			st.bufs = append(st.bufs, buf)
		}
		b.channels = append(b.channels, st)
	}
	return b, nil
}

// newSelector builds a mid-run viewer's selection policy from the
// configured factory (nil lets AddPeer construct the RTHS default), so
// flash-crowd joiners and channel switchers run the same policy family as
// the initial audience. The action count is the system's NewPeerActions —
// the view bound when partial views are engaged, the pool size otherwise.
func (b *memBackend) newSelector(st *memChannel) (core.Selector, error) {
	if b.factory == nil {
		return nil, nil
	}
	return b.factory(st.sys.NumPeers(), st.sys.NewPeerActions(), b.scale)
}

func (b *memBackend) addPeer(ci int) error {
	st := b.channels[ci]
	sel, err := b.newSelector(st)
	if err != nil {
		return err
	}
	if _, err := st.sys.AddPeer(sel, st.bitrate); err != nil {
		return err
	}
	buf, err := streaming.NewBuffer(st.bitrate, b.startup)
	if err != nil {
		return err
	}
	st.bufs = append(st.bufs, buf)
	return nil
}

func (b *memBackend) removePeer(ci, local int) error {
	st := b.channels[ci]
	if err := st.sys.RemovePeer(local); err != nil {
		return err
	}
	st.bufs = append(st.bufs[:local], st.bufs[local+1:]...)
	return nil
}

func (b *memBackend) addHelper(ci, id int, spec core.HelperSpec) error {
	return b.channels[ci].sys.AddHelper(spec)
}

func (b *memBackend) removeHelper(ci, local, id int) error {
	return b.channels[ci].sys.RemoveHelper(local)
}

func (b *memBackend) step(out []stageData) error {
	b.out = out
	fanout.Run(b.workers, len(b.channels) >= b.workers, b.workerFn)
	for _, st := range b.channels {
		if st.err != nil {
			err := st.err
			st.err = nil
			return fmt.Errorf("cluster: channel %q: %w", st.name, err)
		}
	}
	return nil
}

// stepWorker steps worker k's channels: ci = k, k+Workers, ….
func (b *memBackend) stepWorker(k int) {
	for ci := k; ci < len(b.channels); ci += b.workers {
		b.channels[ci].step(&b.out[ci])
	}
}

func (b *memBackend) lastResult(ci int) core.StageResult { return b.channels[ci].last }

// eachReply is a no-op: the shared-memory backend has no links, so every
// exchange trivially succeeds and there is no ledger to walk.
func (b *memBackend) eachReply(fn func(helper int, missed bool)) {}

// roundProfile reports no profile: the shared-memory backend has no
// round barrier to attribute time to.
func (b *memBackend) roundProfile() (distsim.RoundProfile, float64, bool) {
	return distsim.RoundProfile{}, 0, false
}

func (b *memBackend) close() error { return nil }

// step advances one channel one stage and fills its per-stage output slot.
// Runs on the worker pool; touches only this channel's state.
func (st *memChannel) step(out *stageData) {
	res, err := st.sys.Step()
	if err != nil {
		st.err = err
		return
	}
	st.last = res
	*out = stageData{
		welfare:    res.Welfare,
		opt:        res.OptWelfare,
		serverLoad: res.ServerLoad,
		minDeficit: res.MinDeficit,
		viewSwaps:  res.ViewSwaps,
	}
	for i, b := range st.bufs {
		ok, err := b.Tick(res.Rates[i])
		if err != nil {
			st.err = err
			return
		}
		if ok {
			out.played++
		} else {
			out.stalled++
		}
	}
}

var _ backend = (*memBackend)(nil)
