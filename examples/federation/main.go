// Federation: a five-organization SCP network shaped like the paper's
// production topology (§7.2, Figure 6/7). Each organization runs three
// validators; quorum sets are synthesized with the §6.1 quality-tier
// mechanism. The example shows the network reaching consensus, verifies
// quorum intersection with the §6.2 checker, then knocks an entire
// organization offline and shows liveness continuing — the federated
// model's point: no single org is a gatekeeper.
package main

import (
	"fmt"
	"log"
	"time"

	"stellar/internal/experiments"
	"stellar/internal/fba"
	"stellar/internal/qconfig"
	"stellar/internal/quorum"
	"stellar/internal/simnet"
)

func main() {
	const orgs, perOrg = 5, 3
	names := []string{"sdf", "satoshipay", "lobstr", "coinqvest", "keybase"}

	// Build the §6.1 quality-tier configuration and synthesize quorum
	// sets. The validator IDs are assigned after key generation, so the
	// synthesized template is rebuilt per node using their real IDs.
	fmt.Println("five organizations, three validators each (Figure 6 tiers):")
	qsetFor := func(i int, all []fba.NodeID) fba.QuorumSet {
		cfg := qconfig.Config{}
		for o := 0; o < orgs; o++ {
			cfg.Orgs = append(cfg.Orgs, qconfig.Organization{
				Name:       names[o],
				Quality:    qconfig.High,
				Validators: all[o*perOrg : (o+1)*perOrg],
			})
		}
		qs, err := cfg.Synthesize()
		if err != nil {
			log.Fatal(err)
		}
		return qs
	}

	sim, err := experiments.Build(experiments.Options{
		Validators: orgs * perOrg,
		Accounts:   500,
		TxRate:     20,
		QSetFor:    qsetFor,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Before running: prove the collective configuration is safe (§6.2).
	qsets := make(fba.QuorumSets)
	for _, n := range sim.Nodes {
		q := n.SCP().LocalQuorumSet()
		qsets[n.ID()] = &q
	}
	res := quorum.CheckIntersection(qsets)
	fmt.Printf("quorum intersection check: %s\n", res)
	if !res.Intersects {
		log.Fatal("configuration admits disjoint quorums")
	}
	crit := quorum.CheckCriticality(qsets, orgsOf(sim, names, perOrg))
	fmt.Printf("criticality check: %d organizations critical\n\n", len(crit.Critical))

	sim.Start()
	fmt.Println("running 30 seconds of network time:")
	sim.Run(30 * time.Second)
	report(sim)

	// Knock out one whole organization (3 of 15 validators).
	fmt.Printf("\ncrashing all of %q (3 validators)...\n", names[4])
	for _, n := range sim.Nodes[12:15] {
		sim.Net.SetDown(simnet.Addr(n.ID()))
	}
	sim.Run(30 * time.Second)
	report(sim)

	// And bring it back: the stragglers catch up via the cascade.
	fmt.Printf("\nreviving %q; anti-entropy brings it back:\n", names[4])
	for _, n := range sim.Nodes[12:15] {
		sim.Net.SetUp(simnet.Addr(n.ID()))
	}
	for i := 0; i < 10; i++ {
		sim.Run(3 * time.Second)
		for _, n := range sim.Nodes {
			n.RebroadcastLatest()
		}
	}
	report(sim)

	if err := sim.CheckAgreement(); err != nil {
		log.Fatalf("SAFETY VIOLATION: %v", err)
	}
	fmt.Println("\nevery validator agrees on every ledger hash ✓")
}

func report(sim *experiments.SimNetwork) {
	lo, hi := ^uint32(0), uint32(0)
	for _, n := range sim.Nodes {
		seq := n.LastHeader().LedgerSeq
		if seq < lo {
			lo = seq
		}
		if seq > hi {
			hi = seq
		}
	}
	m := sim.Summary()
	fmt.Printf("  ledgers closed: min %d, max %d across validators; close interval mean %.2fs; %.1f tx/ledger\n",
		lo, hi, time.Duration(m.CloseInterval.Mean()).Seconds(), m.TxPerLedger.Mean())
}

func orgsOf(sim *experiments.SimNetwork, names []string, perOrg int) []quorum.Org {
	var out []quorum.Org
	for o := range names {
		var vs []fba.NodeID
		for _, n := range sim.Nodes[o*perOrg : (o+1)*perOrg] {
			vs = append(vs, n.ID())
		}
		out = append(out, quorum.Org{Name: names[o], Validators: vs})
	}
	return out
}
