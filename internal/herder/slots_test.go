package herder

import (
	"sync"
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/scp"
	"stellar/internal/stellarcrypto"
)

// TestSlotLogKeepsTheNewestSlots: an entry is taken over by the slot
// recentWindow later, and a late write for the older slot is dropped rather
// than clobbering the newer record.
func TestSlotLogKeepsTheNewestSlots(t *testing.T) {
	n := &Node{}
	const first = 2
	for slot := uint64(first); slot < first+recentWindow+10; slot++ {
		n.slots.write(slot, func(r *SlotRecord) { r.EnvelopesEmitted++ })
	}
	recs := n.SlotRecords()
	if len(recs) != recentWindow || recs[0].Slot != first+10 || recs[len(recs)-1].Slot != first+recentWindow+9 {
		t.Fatalf("kept %d records, slots %d..%d", len(recs), recs[0].Slot, recs[len(recs)-1].Slot)
	}
	if _, ok := n.SlotRecord(first); ok {
		t.Fatal("slot evicted by the one recentWindow later is still served")
	}
	n.slots.write(first, func(r *SlotRecord) { r.EnvelopesEmitted = 99 })
	if r, ok := n.SlotRecord(first + recentWindow); !ok || r.EnvelopesEmitted != 1 {
		t.Fatalf("a write for an evicted slot reached its successor: %+v", r)
	}
	if _, ok := n.SlotRecord(0); ok {
		t.Fatal("slot 0 (never written) reported as recorded")
	}
}

// TestFarFutureEnvelopesLeaveTheOpenSlot: the slot recentWindow past the
// open one shares its entry. Envelopes for it — one forged, one validly
// signed by a key no quorum names — and a forged one for the open slot
// itself change neither the open slot's record and CloseStats nor when the
// next ledger triggers.
func TestFarFutureEnvelopesLeaveTheOpenSlot(t *testing.T) {
	type outcome struct {
		rec  SlotRecord
		cs   CloseStats
		next time.Duration // the next slot's nomination start
	}
	run := func(inject bool) outcome {
		net, nodes, _ := buildCadenceTrio(t)
		n := nodes[0]
		closes := recordCloses(n)
		for _, m := range nodes {
			m.Start()
		}
		net.RunFor(5 * time.Second)
		open := uint64(n.last.LedgerSeq) + 1
		stepUntil := func(what string, done func() bool) {
			for !done() {
				if !net.Step() {
					t.Fatalf("network idle before %s", what)
				}
			}
		}
		stepUntil("the open slot nominates", func() bool {
			r, _ := n.SlotRecord(open)
			return r.NominationStart.Seen
		})
		if inject {
			outsider := stellarcrypto.KeyPairFromString("far-future-sender")
			for _, e := range []struct {
				slot   uint64
				forged bool
			}{{open + recentWindow, true}, {open + recentWindow, false}, {open, true}} {
				id := fba.NodeIDFromPublicKey(outsider.Public)
				env := &scp.Envelope{
					Node: id, Slot: e.slot, Seq: 1,
					QSet:      fba.QuorumSet{Threshold: 1, Validators: []fba.NodeID{id}},
					Statement: scp.Statement{Type: scp.StmtNominate, Votes: []scp.Value{scp.Value("v")}},
				}
				env.Signature = outsider.Secret.Sign(env.SigningPayload())
				if e.forged {
					env.Signature[0] ^= 0xff
				}
				n.onEnvelope(env)
			}
		}
		stepUntil("the next slot nominates", func() bool {
			r, _ := n.SlotRecord(open + 1)
			return r.NominationStart.Seen
		})
		var out outcome
		out.rec, _ = n.SlotRecord(open)
		out.next = firstEvents(n, nominationStart)[open+1]
		for _, cs := range *closes {
			if uint64(cs.Seq) == open {
				out.cs = cs
				out.cs.Apply = 0 // wall time
			}
		}
		if out.cs.Seq == 0 || !out.cs.Balloted {
			t.Fatalf("inject=%v: slot %d closed with %+v", inject, open, out.cs)
		}
		return out
	}
	if clean, attacked := run(false), run(true); attacked != clean {
		t.Fatalf("envelopes for slot open+%d changed the open slot:\n clean    %+v\n attacked %+v", recentWindow, clean, attacked)
	}
}

// TestSlotLogConcurrentReaders: the event loop writes while horizon and the
// watchdog read; run with -race.
func TestSlotLogConcurrentReaders(t *testing.T) {
	n := &Node{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for slot := uint64(1); slot <= 2000; slot++ {
			n.slots.write(slot, func(r *SlotRecord) { r.EnvelopesReceived++ })
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(0); i < 500; i++ {
			n.SlotRecords()
			n.SlotRecord(i)
		}
	}()
	wg.Wait()
	if r, ok := n.SlotRecord(2000); !ok || r.EnvelopesReceived != 1 {
		t.Fatalf("last slot's record: %+v, ok=%v", r, ok)
	}
}
