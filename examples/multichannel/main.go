// Multichannel: the paper's motivating workload — several live channels
// with Zipf-skewed audiences, each with its own helper pool, plus an origin
// server absorbing whatever the helpers cannot supply. Prints per-channel
// quality and the server's load.
package main

import (
	"fmt"
	"log"

	"rths"
)

func main() {
	// Popular channels get bigger audiences (Zipf); the helper-level
	// allocator (the paper's §V extension) splits an 11-helper pool by
	// aggregate demand before peer-level RTHS runs inside each channel.
	audiences := []int{24, 12, 6}
	bitrates := []float64{400, 300, 250}
	demands := make([]rths.ChannelDemand, 3)
	names := []string{"premier-league", "news-24", "cooking"}
	for c := range demands {
		demands[c] = rths.ChannelDemand{
			Name:   names[c],
			Demand: float64(audiences[c]) * bitrates[c],
		}
	}
	counts, err := rths.SplitHelperPool(demands, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("helper pool split by demand: %v\n\n", counts)

	// Each channel keeps the helpers it was given: an explicit initial
	// assignment pinned by the static allocator, so no helper migrates.
	channels := make([]rths.ClusterChannelSpec, 3)
	var pool []rths.HelperSpec
	var assign []int
	for c := range channels {
		channels[c] = rths.ClusterChannelSpec{
			Name:         names[c],
			Bitrate:      bitrates[c],
			InitialPeers: audiences[c],
		}
		for j := 0; j < counts[c]; j++ {
			pool = append(pool, rths.DefaultHelperSpec())
			assign = append(assign, c)
		}
	}
	multi, err := rths.NewCluster(rths.ClusterConfig{
		Channels:      channels,
		Helpers:       pool,
		InitialAssign: assign,
		Allocator:     rths.ClusterAllocStatic,
		Seed:          7,
	})
	if err != nil {
		log.Fatal(err)
	}
	server, err := rths.NewServer(8000)
	if err != nil {
		log.Fatal(err)
	}

	const stages = 3000
	type channelAgg struct{ welfare, optimum float64 }
	agg := make([]channelAgg, len(names))
	for s := 0; s < stages; s++ {
		tot, err := multi.StepStage()
		if err != nil {
			log.Fatal(err)
		}
		// The origin tops up every channel's unmet demand.
		if _, err := server.ServeStage([]float64{tot.ServerLoad}); err != nil {
			log.Fatal(err)
		}
		if s < stages/2 {
			continue
		}
		for c := range names {
			res := multi.ChannelStageResult(c)
			agg[c].welfare += res.Welfare
			agg[c].optimum += res.OptWelfare
		}
	}

	fmt.Println("channel            welfare/optimum")
	for c, name := range names {
		a := agg[c]
		fmt.Printf("%-18s %.1f%%\n", name, 100*a.welfare/a.optimum)
	}
	fmt.Printf("\norigin server: mean load %.1f kbps, saturated %.1f%% of stages\n",
		server.MeanLoad(), 100*server.OverloadFraction())
}
