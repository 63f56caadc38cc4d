// Command stellar-chaos runs fault-injection scenarios against the
// simulated Stellar network and verifies the consensus invariants the
// paper claims (§3.1): safety for intact nodes under arbitrary faults,
// and liveness recovery once the network heals. Every run is
// deterministic for its seed; a failing scenario prints the seed and a
// replay command, which this binary also serves as.
//
// Usage:
//
//	stellar-chaos -scenarios 20                        # random sweep
//	stellar-chaos -scenario partition-heal -seed 7     # the named scenario
//	stellar-chaos -seed 123456                         # replay one random scenario
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"stellar/internal/chaos"
	"stellar/internal/obs"
)

func main() {
	scenario := flag.String("scenario", "", "named scenario to run: partition-heal, forge-relay, kill-wipe-rejoin, kill-restore-rejoin (default: randomized)")
	seed := flag.Int64("seed", 0, "seed for a single scenario (0: run -scenarios random seeds)")
	scenarios := flag.Int("scenarios", 10, "number of random scenarios when no -seed is given")
	firstSeed := flag.Int64("first-seed", 1, "first seed of the random sweep")
	verbose := flag.Bool("v", false, "structured scenario logging to stderr")
	flag.Parse()

	var log *slog.Logger
	if *verbose {
		log = obs.NewLogger(os.Stderr, slog.LevelInfo)
	}

	build := func(s int64) chaos.Scenario {
		var sc chaos.Scenario
		switch *scenario {
		case "partition-heal":
			sc = chaos.PartitionHealScenario(s)
		case "forge-relay":
			sc = chaos.ForgeRelayScenario(s)
		case "kill-wipe-rejoin", "kill-restore-rejoin":
			base, err := os.MkdirTemp("", "stellar-chaos-archives-")
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			sc = chaos.KillWipeRejoinScenario(s, *scenario == "kill-wipe-rejoin",
				func(i int) string { return filepath.Join(base, fmt.Sprintf("node-%d", i)) })
		case "":
			sc = chaos.Generate(s)
		default:
			fmt.Fprintf(os.Stderr, "unknown scenario %q (have: partition-heal, forge-relay, kill-wipe-rejoin, kill-restore-rejoin)\n", *scenario)
			os.Exit(2)
			panic("unreachable")
		}
		return sc
	}

	seeds := make([]int64, 0, *scenarios)
	if *seed != 0 {
		seeds = append(seeds, *seed)
	} else {
		for s := *firstSeed; s < *firstSeed+int64(*scenarios); s++ {
			seeds = append(seeds, s)
		}
	}

	failures := 0
	for _, s := range seeds {
		rep, err := chaos.Run(build(s), log)
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL: %v\n", err)
			continue
		}
		fmt.Println(rep)
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "\n%d of %d scenarios failed\n", failures, len(seeds))
		os.Exit(1)
	}
	fmt.Printf("all %d scenarios passed\n", len(seeds))
}
