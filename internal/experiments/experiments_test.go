package experiments

import (
	"testing"
	"time"
)

func TestRunBaselineShape(t *testing.T) {
	res, err := RunBaseline(2000, 6)
	if err != nil {
		t.Fatal(err)
	}
	// §7.3: ~500 tx per ledger at 100 tx/s with 5 s closes.
	if res.TxPerLedgerMean < 250 || res.TxPerLedgerMean > 750 {
		t.Fatalf("tx/ledger = %.1f, expected ≈500", res.TxPerLedgerMean)
	}
	// Close cadence near the 5 s target.
	if res.Row.CloseMean < 4*time.Second || res.Row.CloseMean > 7*time.Second {
		t.Fatalf("close mean = %v", res.Row.CloseMean)
	}
	// Consensus latencies well under the ledger interval.
	if res.Row.Nomination+res.Row.Balloting > 2*time.Second {
		t.Fatalf("consensus latency = %v + %v", res.Row.Nomination, res.Row.Balloting)
	}
}

func TestRunAccountsSweepShape(t *testing.T) {
	rows, err := RunAccountsSweep([]int{500, 5000}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Figure 9's shape: consensus latency roughly independent of account
	// count (within a generous factor).
	c0 := rows[0].Nomination + rows[0].Balloting
	c1 := rows[1].Nomination + rows[1].Balloting
	if c1 > 5*c0+100*time.Millisecond {
		t.Fatalf("consensus latency blew up with accounts: %v → %v", c0, c1)
	}
}

func TestRunLoadSweepShape(t *testing.T) {
	rows, err := RunLoadSweep([]float64{20, 100}, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 10's shape: tx/ledger tracks offered load.
	if rows[1].TxPerLedger < rows[0].TxPerLedger {
		t.Fatalf("tx/ledger did not grow with load: %.1f vs %.1f",
			rows[0].TxPerLedger, rows[1].TxPerLedger)
	}
}

func TestRunValidatorsSweepShape(t *testing.T) {
	rows, err := RunValidatorsSweep([]int{4, 10}, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ledgers == 0 {
			t.Fatalf("%s: no ledgers closed", r.Label)
		}
		// Figure 11's shape: ledger update stays independent of node
		// count, and consensus stays below the ledger interval.
		if r.Nomination+r.Balloting > 3*time.Second {
			t.Fatalf("%s: consensus latency %v", r.Label, r.Nomination+r.Balloting)
		}
	}
}

func TestRunMessagesPerLedger(t *testing.T) {
	res, err := RunMessagesPerLedger(8)
	if err != nil {
		t.Fatal(err)
	}
	// §7.2: a small constant (~7) per validator per ledger.
	if res.MeanPerLedger < 3 || res.MeanPerLedger > 15 {
		t.Fatalf("messages/ledger = %.1f", res.MeanPerLedger)
	}
}

func TestRunTimeoutProfile(t *testing.T) {
	res, err := RunTimeoutProfile(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledgers == 0 {
		t.Fatal("no ledgers profiled")
	}
	// Figure 8's shape: p75 is zero — most ledgers see no timeouts.
	if res.Nomination75 != 0 || res.Balloting75 != 0 {
		t.Fatalf("p75 timeouts nonzero: nom=%d ballot=%d", res.Nomination75, res.Balloting75)
	}
}

func TestRunQuorumCheck(t *testing.T) {
	rows, err := RunQuorumCheck([]int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Intersects {
			t.Fatalf("%d orgs: intersection violated", r.Orgs)
		}
		if r.Critical != 0 {
			t.Fatalf("%d orgs: unexpected critical orgs", r.Orgs)
		}
	}
}

func TestRunValidatorCost(t *testing.T) {
	res, err := RunValidatorCost(4, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledgers < 3 {
		t.Fatalf("only %d ledgers", res.Ledgers)
	}
	if res.InboundMbitSec <= 0 {
		t.Fatal("no inbound bandwidth measured")
	}
}
