// Chaos soak: sweep scripted fault schedules and Byzantine adversaries
// across the two production topology shapes (a flat tier-1 slice and the
// §6.1 tiered org structure), checking the chaos package's three
// invariants — safety, monotonicity, liveness recovery — on every run and
// exporting outcome counters through the obs registry.
//
// This file is an external test package: internal/chaos builds its
// networks through internal/experiments, so the sweep has to sit outside
// package experiments to avoid an import cycle.
package experiments_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"stellar/internal/chaos"
)

// chaosSoakTable pairs fault shapes with topologies. Every scenario must
// pass; the obs counters aggregated across the table are asserted at the
// end.
var chaosSoakTable = []struct {
	name string
	sc   chaos.Scenario
}{
	{
		name: "flat/partition-byzantine-heal",
		sc:   chaos.PartitionHealScenario(41),
	},
	{
		name: "flat/crash-two-rolling",
		sc: chaos.Scenario{
			Seed:       42,
			Validators: 5,
			Faults: chaos.Schedule{
				{At: 10 * time.Second, Kind: chaos.FaultCrash, Node: 0},
				{At: 25 * time.Second, Kind: chaos.FaultRestart, Node: 0},
				{At: 30 * time.Second, Kind: chaos.FaultCrash, Node: 3},
				{At: 45 * time.Second, Kind: chaos.FaultRestart, Node: 3},
			},
		},
	},
	{
		name: "flat/loss-and-latency-window",
		sc: chaos.Scenario{
			Seed:       43,
			Validators: 4,
			Faults: chaos.Schedule{
				{At: 8 * time.Second, Kind: chaos.FaultDropRate, Rate: 0.25},
				{At: 8 * time.Second, Kind: chaos.FaultLatencySpike, Extra: 200 * time.Millisecond},
				{At: 30 * time.Second, Kind: chaos.FaultDropRate, Rate: 0},
				{At: 30 * time.Second, Kind: chaos.FaultLatencyRestore},
			},
		},
	},
	{
		name: "flat/asymmetric-link-loss",
		sc: chaos.Scenario{
			Seed:       44,
			Validators: 4,
			Byzantine:  1,
			Behaviors:  chaos.BehaviorFlood | chaos.BehaviorReplay,
			Faults: chaos.Schedule{
				{At: 9 * time.Second, Kind: chaos.FaultLinkLoss, From: 0, To: 1, Rate: 0.8},
				{At: 9 * time.Second, Kind: chaos.FaultLinkLoss, From: 2, To: 3, Rate: 0.6},
				{At: 32 * time.Second, Kind: chaos.FaultLinkLoss, From: 0, To: 1, Rate: 0},
				{At: 32 * time.Second, Kind: chaos.FaultLinkLoss, From: 2, To: 3, Rate: 0},
			},
		},
	},
	{
		name: "tiered/org-partition",
		sc: chaos.Scenario{
			Seed:       45,
			Topology:   chaos.TopologyTiered,
			Validators: 9, // 3 orgs of 3
			Faults: chaos.Schedule{
				// One whole org cut off; the other two still form a quorum.
				{At: 10 * time.Second, Kind: chaos.FaultPartition,
					Groups: [][]int{{0, 1, 2}, {3, 4, 5, 6, 7, 8}}},
				{At: 35 * time.Second, Kind: chaos.FaultHeal},
			},
		},
	},
	{
		name: "tiered/byzantine-crash",
		sc: chaos.Scenario{
			Seed:       46,
			Topology:   chaos.TopologyTiered,
			Validators: 8, // + 1 byzantine = 3 orgs of 3
			Byzantine:  1,
			Faults: chaos.Schedule{
				{At: 11 * time.Second, Kind: chaos.FaultCrash, Node: 4},
				{At: 28 * time.Second, Kind: chaos.FaultRestart, Node: 4},
			},
		},
	},
}

func TestChaosSoakSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	var ledgers uint32
	for _, tc := range chaosSoakTable {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rep, err := chaos.Run(tc.sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			ledgers += rep.MinSeq
			t.Logf("%s", rep)
		})
	}
	if ledgers == 0 {
		t.Fatal("no ledgers closed across the sweep")
	}
}

// TestChaosSoakRandomSeeds drives the randomized scenario generator. The
// default sweep is small; the nightly CI job widens it with CHAOS_SEEDS.
func TestChaosSoakRandomSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	seeds := 4
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_SEEDS=%q", s)
		}
		seeds = n
	}
	for seed := int64(9000); seed < int64(9000+seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := chaos.Run(chaos.Generate(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.MinSeq == 0 {
				t.Fatal("a node closed no ledgers")
			}
		})
	}
}
