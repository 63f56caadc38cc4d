package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Latency decomposition: aggregate the span stream into per-phase
// statistics, reproducing the paper's §6.2 analysis (Figures 10/11) of
// where ledger-close time goes — the headline claim being that balloting,
// not nomination or apply, dominates consensus latency.

// PhaseStat summarizes all completed spans sharing one name.
type PhaseStat struct {
	Name  string
	Count int
	Total time.Duration
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Decomposition is the per-phase latency breakdown of one trace.
type Decomposition struct {
	Phases []PhaseStat
	byName map[string]PhaseStat
}

// Phase looks up one phase's stats (zero value if absent).
func (d *Decomposition) Phase(name string) PhaseStat {
	if d == nil {
		return PhaseStat{}
	}
	return d.byName[name]
}

// Spans returns the number of completed spans the decomposition covers.
func (d *Decomposition) Spans() int {
	if d == nil {
		return 0
	}
	n := 0
	for _, p := range d.Phases {
		n += p.Count
	}
	return n
}

// lifecycleOrder fixes the table's row order to match the transaction
// lifecycle; unknown phases sort after, alphabetically.
var lifecycleOrder = map[string]int{
	SpanTx:          0,
	SpanTxSubmit:    1,
	SpanTxPending:   2,
	SpanTxConsensus: 3,
	SpanSlot:        4,
	SpanTrigger:     5,
	SpanNomination:  6,
	SpanBalloting:   7,
	SpanPrepare:     8,
	SpanCommit:      9,
	SpanApply:       10,
	SpanSigPrepass:  11,
	SpanTxApply:     12,
	SpanBucketMerge: 13,
	SpanArchive:     14,
}

// Decompose aggregates every completed span by name. Open (unfinished)
// spans are excluded — their durations are artifacts of when the
// snapshot happened, not of the system.
func (t *Tracer) Decompose() *Decomposition {
	if t == nil {
		return &Decomposition{byName: map[string]PhaseStat{}}
	}
	spans, _, _ := t.snapshot()
	durs := make(map[string][]time.Duration)
	for _, s := range spans {
		if s.open {
			continue
		}
		durs[s.name] = append(durs[s.name], s.end-s.start)
	}
	d := &Decomposition{byName: make(map[string]PhaseStat, len(durs))}
	for name, ds := range durs {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		st := PhaseStat{Name: name, Count: len(ds), Max: ds[len(ds)-1]}
		for _, v := range ds {
			st.Total += v
		}
		st.Mean = st.Total / time.Duration(len(ds))
		st.P50 = quantileDur(ds, 0.50)
		st.P99 = quantileDur(ds, 0.99)
		d.byName[name] = st
		d.Phases = append(d.Phases, st)
	}
	sort.Slice(d.Phases, func(i, j int) bool {
		oi, iok := lifecycleOrder[d.Phases[i].Name]
		oj, jok := lifecycleOrder[d.Phases[j].Name]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return d.Phases[i].Name < d.Phases[j].Name
		}
	})
	return d
}

// quantileDur returns the nearest-rank q-quantile of sorted durations.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// BallotingShare returns balloting's fraction of total consensus time
// (nomination + balloting), and whether there was any consensus data.
// This is the paper's §6.2 headline number: balloting dominates.
func (d *Decomposition) BallotingShare() (float64, bool) {
	nom := d.Phase(SpanNomination).Total
	bal := d.Phase(SpanBalloting).Total
	if nom+bal <= 0 {
		return 0, false
	}
	return float64(bal) / float64(nom+bal), true
}

// WriteTable renders the decomposition as an aligned text table plus a
// consensus-share summary line.
func (d *Decomposition) WriteTable(w io.Writer) error {
	if d == nil || len(d.Phases) == 0 {
		_, err := fmt.Fprintln(w, "no completed spans recorded")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-16s %8s %12s %12s %12s %12s %12s\n",
		"phase", "count", "mean", "p50", "p99", "max", "total"); err != nil {
		return err
	}
	for _, p := range d.Phases {
		if _, err := fmt.Fprintf(w, "%-16s %8d %12s %12s %12s %12s %12s\n",
			p.Name, p.Count,
			fmtDur(p.Mean), fmtDur(p.P50), fmtDur(p.P99), fmtDur(p.Max), fmtDur(p.Total)); err != nil {
			return err
		}
	}
	if share, ok := d.BallotingShare(); ok {
		verb := "dominates"
		if share < 0.5 {
			verb = "does NOT dominate"
		}
		if _, err := fmt.Fprintf(w,
			"\nconsensus split: balloting %.1f%% vs nomination %.1f%% — balloting %s consensus latency (paper §6.2)\n",
			share*100, (1-share)*100, verb); err != nil {
			return err
		}
	}
	return nil
}

// fmtDur rounds durations for table display.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
