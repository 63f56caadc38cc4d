package experiments

import (
	"fmt"
	"runtime"
	"time"

	"stellar/internal/fba"
	"stellar/internal/pbft"
	"stellar/internal/qconfig"
	"stellar/internal/quorum"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// This file implements the experiment behind every table and figure of §7
// (see DESIGN.md's experiment index E1–E12). Each Run* function builds a
// network, drives it for a measured interval, and returns the series the
// paper reports.

// LatencyRow is one point of Figures 9, 10, or 11: the three measured
// phases (§7.3) at one sweep setting.
type LatencyRow struct {
	Label        string
	X            float64
	Nomination   time.Duration // mean
	Balloting    time.Duration // mean
	LedgerUpdate time.Duration // mean
	CloseMean    time.Duration // §7.3 close rate
	TxPerLedger  float64
	Ledgers      int
}

// measure runs a network for the given number of ledgers and summarizes.
func measure(opts Options, label string, x float64, ledgers int) (LatencyRow, error) {
	s, err := Build(opts)
	if err != nil {
		return LatencyRow{}, err
	}
	s.Start()
	interval := s.Opts.LedgerInterval // opts after defaults
	// Warm-up: two ledgers for the pool and caches to fill.
	s.Run(2 * interval)
	s.Run(time.Duration(ledgers) * interval)
	s.Stop()
	if err := s.CheckAgreement(); err != nil {
		return LatencyRow{}, err
	}
	return s.Summary().row(label, x), nil
}

// row is the run's LatencyRow: the mean of each phase over every node's
// closes.
func (m Summary) row(label string, x float64) LatencyRow {
	return LatencyRow{
		Label:        label,
		X:            x,
		Nomination:   time.Duration(m.Nomination.Mean()),
		Balloting:    time.Duration(m.Balloting.Mean()),
		LedgerUpdate: time.Duration(m.LedgerUpdate.Mean()),
		CloseMean:    time.Duration(m.CloseInterval.Mean()),
		TxPerLedger:  m.TxPerLedger.Mean(),
		Ledgers:      m.CloseInterval.N(),
	}
}

// BaselineResult is the §7.3 baseline: 100k accounts, 4 validators,
// 100 tx/s.
type BaselineResult struct {
	Row              LatencyRow
	TxPerLedgerMean  float64
	TxPerLedgerStdev float64
	Nomination99     time.Duration
	Balloting99      time.Duration
	LedgerUpdate99   time.Duration
}

// RunBaseline reproduces the §7.3 baseline paragraph (E6).
func RunBaseline(accounts int, ledgers int) (*BaselineResult, error) {
	opts := Options{Accounts: accounts}
	s, err := Build(opts)
	if err != nil {
		return nil, err
	}
	s.Start()
	s.Run(2 * s.Opts.LedgerInterval)
	s.Run(time.Duration(ledgers) * 5 * time.Second)
	s.Stop()
	if err := s.CheckAgreement(); err != nil {
		return nil, err
	}
	m := s.Summary()
	return &BaselineResult{
		Row:              m.row("baseline", 0),
		TxPerLedgerMean:  m.TxPerLedger.Mean(),
		TxPerLedgerStdev: m.TxPerLedger.Stddev(),
		Nomination99:     m.Nomination.Percentile(99),
		Balloting99:      m.Balloting.Percentile(99),
		LedgerUpdate99:   m.LedgerUpdate.Percentile(99),
	}, nil
}

// RunAccountsSweep reproduces Figure 9 (E3): latency as the number of
// accounts increases, at 4 validators and 100 tx/s.
func RunAccountsSweep(accountCounts []int, ledgers int) ([]LatencyRow, error) {
	var out []LatencyRow
	for _, n := range accountCounts {
		row, err := measure(Options{Accounts: n}, fmt.Sprintf("%d accounts", n), float64(n), ledgers)
		if err != nil {
			return nil, fmt.Errorf("accounts=%d: %w", n, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// RunLoadSweep reproduces Figure 10 (E4): latency as transaction load
// increases, at 100k accounts and 4 validators.
func RunLoadSweep(rates []float64, accounts, ledgers int) ([]LatencyRow, error) {
	var out []LatencyRow
	for _, r := range rates {
		opts := Options{Accounts: accounts, TxRate: r}
		row, err := measure(opts, fmt.Sprintf("%.0f tx/s", r), r, ledgers)
		if err != nil {
			return nil, fmt.Errorf("rate=%v: %w", r, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// RunValidatorsSweep reproduces Figure 11 (E5): latency as the validator
// count grows, all validators in all slices (the §7.3 worst case).
func RunValidatorsSweep(counts []int, accounts, ledgers int) ([]LatencyRow, error) {
	var out []LatencyRow
	for _, n := range counts {
		opts := Options{Accounts: accounts, Validators: n}
		row, err := measure(opts, fmt.Sprintf("%d validators", n), float64(n), ledgers)
		if err != nil {
			return nil, fmt.Errorf("validators=%d: %w", n, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// TimeoutProfile is Figure 8 (E2): per-ledger timeout percentiles over a
// long run with degraded links.
type TimeoutProfile struct {
	Ledgers        int
	Nomination75   int
	Nomination99   int
	NominationMax  int
	Balloting75    int
	Balloting99    int
	BallotingMax   int
	MeanMsgsPerLgr float64
}

// RunTimeoutProfile reproduces Figure 8: a long run over links with jitter
// and loss, counting nomination and ballot timeouts per ledger.
func RunTimeoutProfile(ledgers int) (*TimeoutProfile, error) {
	opts := Options{
		Accounts:   1000,
		TxRate:     10,
		LatencyMin: 20 * time.Millisecond,
		LatencyMax: 800 * time.Millisecond, // heavy wide-area jitter
		DropRate:   0.02,
	}
	s, err := Build(opts)
	if err != nil {
		return nil, err
	}
	s.Start()
	for i := 0; i < ledgers; i++ {
		s.Run(s.Opts.LedgerInterval)
		if i%5 == 0 {
			for _, n := range s.Nodes {
				n.RebroadcastLatest() // anti-entropy against the loss
			}
		}
	}
	s.Stop()
	if err := s.CheckAgreement(); err != nil {
		return nil, err
	}
	m := s.Summary()
	return &TimeoutProfile{
		Ledgers:        m.NominationTimeouts.N(),
		Nomination75:   m.NominationTimeouts.Percentile(75),
		Nomination99:   m.NominationTimeouts.Percentile(99),
		NominationMax:  m.NominationTimeouts.Max(),
		Balloting75:    m.BallotTimeouts.Percentile(75),
		Balloting99:    m.BallotTimeouts.Percentile(99),
		BallotingMax:   m.BallotTimeouts.Max(),
		MeanMsgsPerLgr: m.MessagesEmitted.Mean(),
	}, nil
}

// MessagesResult is E1: SCP envelopes broadcast per ledger per validator
// in the normal no-fault case (§7.2 reports 6–7).
type MessagesResult struct {
	MeanPerLedger float64
	MaxPerLedger  int
	Ledgers       int
}

// RunMessagesPerLedger reproduces the §7.2 message-count observation.
func RunMessagesPerLedger(ledgers int) (*MessagesResult, error) {
	opts := Options{Accounts: 500, TxRate: 10}
	s, err := Build(opts)
	if err != nil {
		return nil, err
	}
	s.Start()
	s.Run(time.Duration(ledgers+2) * s.Opts.LedgerInterval)
	s.Stop()
	m := s.Summary()
	return &MessagesResult{
		MeanPerLedger: m.MessagesEmitted.Mean(),
		MaxPerLedger:  m.MessagesEmitted.Max(),
		Ledgers:       m.MessagesEmitted.N(),
	}, nil
}

// CostResult is E8 (§7.4): resource usage of one validator.
type CostResult struct {
	HeapMiB         float64
	InboundMbitSec  float64
	OutboundMbitSec float64
	Ledgers         int
}

// RunValidatorCost measures a steady-state validator: Go heap in lieu of
// RSS, and simulated network bandwidth.
func RunValidatorCost(validators, accounts int, ledgers int) (*CostResult, error) {
	opts := Options{Validators: validators, Accounts: accounts, TxRate: 100}
	s, err := Build(opts)
	if err != nil {
		return nil, err
	}
	s.Start()
	dur := time.Duration(ledgers) * s.Opts.LedgerInterval
	s.Run(dur)
	s.Stop()

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapPerNode := float64(ms.HeapAlloc) / float64(len(s.Nodes)) / (1 << 20)

	inBytes := s.Net.BytesDeliveredTo(s.Nodes[0].Addr())
	outBytes := s.Net.Stats().BytesDelivered / uint64(len(s.Nodes)) // symmetric flood
	secs := dur.Seconds()
	return &CostResult{
		HeapMiB:         heapPerNode,
		InboundMbitSec:  float64(inBytes) * 8 / secs / 1e6,
		OutboundMbitSec: float64(outBytes) * 8 / secs / 1e6,
		Ledgers:         int(s.Nodes[0].LastHeader().LedgerSeq),
	}, nil
}

// QIRow is one row of E9/E10: quorum intersection checking cost.
type QIRow struct {
	Orgs       int
	Nodes      int
	Intersects bool
	Examined   int
	Elapsed    time.Duration
	Critical   int // orgs flagged critical (E10)
}

// RunQuorumCheck reproduces §6.2: intersection checking on tiered
// topologies of increasing size, plus criticality analysis.
func RunQuorumCheck(orgCounts []int) ([]QIRow, error) {
	var out []QIRow
	for _, orgs := range orgCounts {
		cfg := qconfig.SimulatedNetwork(orgs, 3, qconfig.High)
		qs, err := cfg.QuorumSets()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res := quorum.CheckIntersection(qs)
		crit := quorum.CheckCriticality(qs, quorum.GroupByPrefix(qs))
		out = append(out, QIRow{
			Orgs:       orgs,
			Nodes:      len(qs),
			Intersects: res.Intersects,
			Examined:   res.QuorumsExamined,
			Elapsed:    time.Since(start),
			Critical:   len(crit.Critical),
		})
	}
	return out, nil
}

// BFTRow compares SCP and the PBFT baseline at one size (E11).
type BFTRow struct {
	N           int
	SCPLatency  time.Duration
	SCPMsgs     uint64
	PBFTLatency time.Duration
	PBFTMsgs    uint64
}

// RunSCPvsPBFT runs single-decision latency for both protocols at equal N
// over identical link latency.
func RunSCPvsPBFT(sizes []int) ([]BFTRow, error) {
	var out []BFTRow
	for _, n := range sizes {
		scpLat, scpMsgs, err := scpDecisionLatency(n)
		if err != nil {
			return nil, err
		}
		pbftLat, pbftMsgs := pbftDecisionLatency(n)
		out = append(out, BFTRow{
			N: n, SCPLatency: scpLat, SCPMsgs: scpMsgs,
			PBFTLatency: pbftLat, PBFTMsgs: pbftMsgs,
		})
	}
	return out, nil
}

// scpDecisionLatency runs one SCP slot to externalization.
func scpDecisionLatency(n int) (time.Duration, uint64, error) {
	opts := Options{Validators: n, Accounts: 64, TxRate: 5, LedgerInterval: 5 * time.Second}
	s, err := Build(opts)
	if err != nil {
		return 0, 0, err
	}
	s.Start()
	s.Run(3 * opts.LedgerInterval)
	s.Stop()
	m := s.Summary()
	lat := time.Duration(m.Nomination.Mean()) + time.Duration(m.Balloting.Mean())
	var msgs uint64
	for _, node := range s.Nodes {
		msgs += node.Overlay().FloodsSent
	}
	ledgers := uint64(s.Nodes[0].LastHeader().LedgerSeq)
	if ledgers > 1 {
		msgs /= ledgers - 1
	}
	return lat, msgs, nil
}

// pbftDecisionLatency runs one PBFT slot to decision.
func pbftDecisionLatency(n int) (time.Duration, uint64) {
	net := simnet.New(99)
	net.SetLatency(simnet.UniformLatency(2*time.Millisecond, 10*time.Millisecond))
	rs := pbft.NewGroup(net, pbft.Config{N: n, Timeout: 5 * time.Second})
	var decidedAt time.Duration
	decided := 0
	for _, r := range rs {
		r.Decided = func(slot uint64, v pbft.Value) {
			decided++
			if decided == len(rs) {
				decidedAt = net.Now()
			}
		}
	}
	start := net.Now()
	for _, r := range rs {
		r.Propose(1, pbft.Value("proposal"))
	}
	net.RunFor(30 * time.Second)
	var msgs uint64
	for _, r := range rs {
		msgs += r.MessagesSent
	}
	if decided < len(rs) {
		return 30 * time.Second, msgs
	}
	return decidedAt - start, msgs
}

// AblationTimeoutRow compares ballot timeout growth policies (DESIGN §4).
type AblationTimeoutRow struct {
	Policy    string
	CloseMean time.Duration
	Timeouts  float64 // mean ballot timeouts per ledger
}

// RunTimeoutPolicyAblation compares linear vs exponential ballot timeout
// growth on a laggy network.
func RunTimeoutPolicyAblation(ledgers int) ([]AblationTimeoutRow, error) {
	policies := []struct {
		name string
		f    func(counter uint32) time.Duration
	}{
		{"linear (1+n)s", nil}, // default
		{"exponential 2^n·s", func(c uint32) time.Duration {
			if c > 5 {
				c = 5
			}
			return time.Second << c
		}},
		{"constant 1s", func(c uint32) time.Duration { return time.Second }},
	}
	var out []AblationTimeoutRow
	for _, p := range policies {
		opts := Options{
			Accounts:      1000,
			TxRate:        10,
			LatencyMin:    100 * time.Millisecond,
			LatencyMax:    1500 * time.Millisecond,
			DropRate:      0.05,
			BallotTimeout: p.f,
		}
		s, err := Build(opts)
		if err != nil {
			return nil, err
		}
		s.Start()
		s.Run(time.Duration(ledgers) * s.Opts.LedgerInterval)
		s.Stop()
		if err := s.CheckAgreement(); err != nil {
			return nil, fmt.Errorf("policy %s: %w", p.name, err)
		}
		m := s.Summary()
		out = append(out, AblationTimeoutRow{
			Policy:    p.name,
			CloseMean: time.Duration(m.CloseInterval.Mean()),
			Timeouts:  m.BallotTimeouts.Mean(),
		})
	}
	return out, nil
}

// OverlayRow compares dissemination strategies (§7.5 future work).
type OverlayRow struct {
	Strategy       string
	MsgsPerLedger  float64 // network-wide overlay sends per closed ledger
	BytesPerLedger float64
	CloseMean      time.Duration
}

// RunOverlayComparison pits the production flooding overlay against the
// §7.5 structured-multicast extension at the same validator count.
func RunOverlayComparison(validators, ledgers int) ([]OverlayRow, error) {
	var out []OverlayRow
	for _, mode := range []struct {
		name      string
		multicast bool
	}{{"flooding (§7.5 production)", false}, {"structured multicast (tree)", true}} {
		opts := Options{
			Validators: validators,
			Accounts:   500,
			TxRate:     20,
			Multicast:  mode.multicast,
		}
		s, err := Build(opts)
		if err != nil {
			return nil, err
		}
		s.Start()
		s.Run(time.Duration(ledgers+2) * s.Opts.LedgerInterval)
		s.Stop()
		if err := s.CheckAgreement(); err != nil {
			return nil, fmt.Errorf("%s: %w", mode.name, err)
		}
		var sent uint64
		for _, n := range s.Nodes {
			sent += n.Overlay().FloodsSent
		}
		closed := float64(s.Nodes[0].LastHeader().LedgerSeq - 1)
		if closed == 0 {
			return nil, fmt.Errorf("%s: no ledgers closed", mode.name)
		}
		m := s.Summary()
		out = append(out, OverlayRow{
			Strategy:       mode.name,
			MsgsPerLedger:  float64(sent) / closed,
			BytesPerLedger: float64(s.Net.Stats().BytesDelivered) / closed,
			CloseMean:      time.Duration(m.CloseInterval.Mean()),
		})
	}
	return out, nil
}

// LeaderForSlot exposes leader-election computation over an experiment
// topology (used by the nomination analysis in cmd/benchtables).
func LeaderForSlot(networkID stellarcrypto.Hash, slot uint64, qset *fba.QuorumSet, self fba.NodeID) fba.NodeID {
	return scp.LeaderForRound(networkID, slot, 1, qset, self)
}
