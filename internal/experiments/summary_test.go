package experiments

import (
	"testing"
	"time"

	"stellar/internal/herder"
)

func TestDistNearestRank(t *testing.T) {
	var d Dist[time.Duration]
	for i := 100; i >= 1; i-- { // out of order: the summary must not care
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	if d.N() != 100 {
		t.Fatalf("n = %d", d.N())
	}
	if got := d.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := d.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := d.Max(); got != 100*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
	if got := time.Duration(d.Mean()); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
}

func TestDistCounts(t *testing.T) {
	d := Dist[int]{0, 0, 0, 1, 4}
	if d.Percentile(60) != 0 {
		t.Fatalf("p60 = %d", d.Percentile(60))
	}
	if d.Percentile(75) != 1 { // nearest rank: ⌈0.75·5⌉ = 4th sample
		t.Fatalf("p75 = %d", d.Percentile(75))
	}
	if d.Percentile(99) != 4 || d.Max() != 4 {
		t.Fatalf("p99 = %d, max = %d", d.Percentile(99), d.Max())
	}
	if d.Mean() != 1.0 {
		t.Fatalf("mean = %v", d.Mean())
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist[time.Duration]
	if d.N() != 0 || d.Mean() != 0 || d.Percentile(99) != 0 || d.Max() != 0 || d.Stddev() != 0 {
		t.Fatal("empty duration distribution not zero")
	}
	var c Dist[int]
	if c.N() != 0 || c.Mean() != 0 || c.Percentile(99) != 0 || c.Max() != 0 || c.Stddev() != 0 {
		t.Fatal("empty count distribution not zero")
	}
}

func TestDistPercentileBounds(t *testing.T) {
	d := Dist[time.Duration]{time.Second}
	if d.Percentile(0.0001) != time.Second || d.Percentile(100) != time.Second {
		t.Fatal("percentile bounds wrong for a single sample")
	}
	c := Dist[int]{7}
	if c.Percentile(0.0001) != 7 || c.Percentile(100) != 7 {
		t.Fatal("percentile bounds wrong for a single count")
	}
}

// TestDistAddAfterRead: a query leaves the samples in close order, and a
// sample appended after it counts in the next query.
func TestDistAddAfterRead(t *testing.T) {
	d := Dist[time.Duration]{5 * time.Millisecond, 3 * time.Millisecond}
	if got := d.Percentile(50); got != 3*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if d[0] != 5*time.Millisecond {
		t.Fatal("a percentile query reordered the samples")
	}
	d = append(d, time.Millisecond)
	if got := d.Percentile(1); got != time.Millisecond {
		t.Fatalf("p1 after a late sample = %v", got)
	}
	if d.Max() != 5*time.Millisecond || d.N() != 3 {
		t.Fatalf("max %v n %d after a late sample", d.Max(), d.N())
	}
}

func TestDistStddev(t *testing.T) {
	d := Dist[int]{10}
	if d.Stddev() != 0 {
		t.Fatal("stddev of one sample nonzero")
	}
	d = append(d, 20)
	if got, want := d.Stddev(), 7.0710678118654755; got != want { // √50
		t.Fatalf("stddev = %v, want %v", got, want)
	}
}

// TestSummarizeTakesObservedPhasesOnly: a phase a node did not observe for
// a ledger adds no sample, and samples run record set by record set.
func TestSummarizeTakesObservedPhasesOnly(t *testing.T) {
	s := Summarize(
		[]herder.CloseStats{
			{Seq: 2, Txs: 3, CloseInterval: 5 * time.Second, InSCP: true, Emitted: 7,
				Nominated: true, Nomination: time.Millisecond, Balloted: true, Balloting: 2 * time.Millisecond},
			{Seq: 3, Txs: 4, CloseInterval: 5 * time.Second}, // caught up: no consensus timings
		},
		[]herder.CloseStats{
			{Seq: 2, Txs: 3, CloseInterval: 5 * time.Second, InSCP: true, Emitted: 6, NominationTimeouts: 1,
				Balloted: true, Balloting: 4 * time.Millisecond},
		},
	)
	if n := s.CloseInterval.N(); n != 3 {
		t.Fatalf("close intervals = %d, want 3", n)
	}
	if s.Nomination.N() != 1 || s.Balloting.N() != 2 || s.MessagesEmitted.N() != 2 {
		t.Fatalf("phase samples nomination %d balloting %d messages %d, want 1 2 2",
			s.Nomination.N(), s.Balloting.N(), s.MessagesEmitted.N())
	}
	if s.TxPerLedger[1] != 4 || s.Balloting[1] != 4*time.Millisecond || s.NominationTimeouts.Max() != 1 {
		t.Fatalf("samples out of record order: %+v", s)
	}
}
