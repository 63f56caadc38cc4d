package herder

import (
	"sort"
	"sync"
	"time"
)

// SlotRecord is what this node saw of one slot: the phase boundaries of the
// paper's §7.3 breakdown on the node's clock, and the slot's round, timeout
// and envelope counts. A zero time is a boundary the node has not (yet)
// seen. Each SCP callback and the herder's trigger, receive, externalize and
// apply paths write it once; applyLedger derives the slot's CloseStats from
// it, and horizon's /debug/slots/{seq}/trace and the crash bundle's
// slots.json serve it.
type SlotRecord struct {
	Slot uint64 `json:"slot"`

	NominationStart    time.Duration `json:"nomination_start_ns,omitempty"`
	CandidateConfirmed time.Duration `json:"candidate_confirmed_ns,omitempty"`
	FirstPrepare       time.Duration `json:"first_prepare_ns,omitempty"`
	AcceptCommit       time.Duration `json:"accept_commit_ns,omitempty"`
	Externalized       time.Duration `json:"externalize_ns,omitempty"`
	Applied            time.Duration `json:"ledger_applied_ns,omitempty"`

	// NominationRounds counts rounds started, round 1 included;
	// BallotsStarted counts ballots moved to, so it is > 0 once FirstPrepare
	// is set.
	NominationRounds   int `json:"nomination_rounds"`
	BallotsStarted     int `json:"ballots_started"`
	NominationTimeouts int `json:"nomination_timeouts"`
	BallotTimeouts     int `json:"ballot_timeouts"`
	EnvelopesEmitted   int `json:"envelopes_emitted"`
	EnvelopesReceived  int `json:"envelopes_received"`
}

// Prepared reports whether the node started balloting on the slot.
func (r *SlotRecord) Prepared() bool { return r.BallotsStarted > 0 }

// InSCP reports whether the node took part in the slot's consensus: it
// nominated, balloted, timed out, emitted or externalized. Receiving
// envelopes, or applying a ledger decided without it, is not taking part.
func (r *SlotRecord) InSCP() bool {
	return r.NominationStart > 0 || r.Prepared() || r.NominationTimeouts+r.BallotTimeouts > 0 ||
		r.EnvelopesEmitted > 0 || r.Externalized > 0
}

// slotLog holds the records of the last recentWindow slots in a fixed array
// indexed by slot mod recentWindow, behind its own mutex: the event loop
// writes it, while horizon and the crash-bundle watchdog read it without the
// loop's lock (the watchdog dumps exactly when the loop is wedged).
type slotLog struct {
	mu   sync.Mutex
	recs [recentWindow]SlotRecord
}

// write applies f to slot's record. An entry holding an older slot is
// cleared for this one first; a write for a slot older than the entry's is
// dropped, so the log keeps the newest slots.
func (l *slotLog) write(slot uint64, f func(r *SlotRecord)) {
	l.mu.Lock()
	r := &l.recs[slot%recentWindow]
	if r.Slot < slot {
		*r = SlotRecord{Slot: slot}
	}
	if r.Slot == slot {
		f(r)
	}
	l.mu.Unlock()
}

// record applies f to slot's record if slot is at most recentWindow past
// the last closed ledger. The open slot's entry is shared only with slots
// recentWindow apart, so no envelope, whatever slot it names, can take it
// over and blank the record applyLedger measures the close from.
func (n *Node) record(slot uint64, f func(r *SlotRecord)) {
	if slot <= uint64(n.last.LedgerSeq)+recentWindow {
		n.slots.write(slot, f)
	}
}

// SlotRecord returns this node's record of slot, if it is among the last
// recentWindow slots the node wrote. It does not need the event-loop lock.
func (n *Node) SlotRecord(slot uint64) (SlotRecord, bool) {
	l := &n.slots
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.recs[slot%recentWindow]
	return r, slot != 0 && r.Slot == slot
}

// SlotRecords returns every retained record, oldest slot first. It does not
// need the event-loop lock.
func (n *Node) SlotRecords() []SlotRecord {
	l := &n.slots
	l.mu.Lock()
	out := make([]SlotRecord, 0, recentWindow)
	for _, r := range l.recs {
		if r.Slot != 0 {
			out = append(out, r)
		}
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}
