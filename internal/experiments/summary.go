package experiments

import (
	"math"
	"slices"
	"time"

	"stellar/internal/herder"
)

// Dist is one per-close quantity over a run, summarized by nearest rank.
type Dist[T time.Duration | int] []T

// N returns the number of samples.
func (d Dist[T]) N() int { return len(d) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (d Dist[T]) Mean() float64 {
	if len(d) == 0 {
		return 0
	}
	var sum T
	for _, v := range d {
		sum += v
	}
	return float64(sum) / float64(len(d))
}

// Percentile returns the p-th percentile (0 < p ≤ 100) by nearest rank, or 0
// with no samples.
func (d Dist[T]) Percentile(p float64) T {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// Max returns the largest sample, or 0 with no samples.
func (d Dist[T]) Max() T {
	if len(d) == 0 {
		return 0
	}
	return slices.Max(d)
}

// Stddev returns the sample standard deviation, or 0 with fewer than two
// samples.
func (d Dist[T]) Stddev() float64 {
	if len(d) < 2 {
		return 0
	}
	mean := d.Mean()
	var acc float64
	for _, v := range d {
		x := float64(v) - mean
		acc += x * x
	}
	return math.Sqrt(acc / float64(len(d)-1))
}

// Summary is what the tables report of a run's closes: one distribution
// per herder.CloseStats quantity. A phase a node did not observe for a
// ledger contributes no sample.
type Summary struct {
	Nomination, Balloting, LedgerUpdate, CloseInterval               Dist[time.Duration]
	TxPerLedger, NominationTimeouts, BallotTimeouts, MessagesEmitted Dist[int]
}

// Summarize folds close records into their distributions, record set by
// record set, each in close order.
func Summarize(records ...[]herder.CloseStats) Summary {
	var s Summary
	for _, rs := range records {
		for _, r := range rs {
			s.LedgerUpdate = append(s.LedgerUpdate, r.Apply)
			s.TxPerLedger = append(s.TxPerLedger, r.Txs)
			s.CloseInterval = append(s.CloseInterval, r.CloseInterval)
			if r.Nominated {
				s.Nomination = append(s.Nomination, r.Nomination)
			}
			if r.Balloted {
				s.Balloting = append(s.Balloting, r.Balloting)
			}
			if r.InSCP {
				s.NominationTimeouts = append(s.NominationTimeouts, r.NominationTimeouts)
				s.BallotTimeouts = append(s.BallotTimeouts, r.BallotTimeouts)
				s.MessagesEmitted = append(s.MessagesEmitted, r.Emitted)
			}
		}
	}
	return s
}

// Summary summarizes every validator's closes, node by node.
func (s *SimNetwork) Summary() Summary { return Summarize(s.Records...) }
