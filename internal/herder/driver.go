package herder

import (
	"time"

	"stellar/internal/scp"
	"stellar/internal/stellarcrypto"
)

// driver adapts a herder Node to the scp.Driver and scp.MetricsDriver
// interfaces. It is the same object as the Node (a type conversion), so SCP
// callbacks run synchronously in the node's event context.
type driver Node

var (
	_ scp.Driver        = (*driver)(nil)
	_ scp.MetricsDriver = (*driver)(nil)
)

func (d *driver) node() *Node { return (*Node)(d) }

// ValidateValue implements the §5.3 validity rules for StellarValues.
func (d *driver) ValidateValue(slot uint64, raw scp.Value) scp.ValidationLevel {
	n := d.node()
	sv, err := DecodeValue(raw)
	if err != nil {
		return scp.ValueInvalid
	}
	if n.state == nil || n.last == nil {
		return scp.ValueMaybeValid
	}
	// Close time must move strictly forward (§5.3) and not sit in the
	// future beyond clock tolerance.
	if sv.CloseTime <= n.last.CloseTime && slot == uint64(n.last.LedgerSeq)+1 {
		return scp.ValueInvalid
	}
	drift := n.cfg.MaxCloseTimeDrift
	if drift <= 0 {
		drift = 10 * time.Second
	}
	now := int64(n.net.Now() / time.Second)
	fullyValid := sv.CloseTime <= now+int64(drift/time.Second)

	// Upgrades: invalid upgrades poison the value; valid-but-undesired
	// ones make it merely acceptable for a governing node (§5.3).
	for _, u := range sv.Upgrades {
		switch ClassifyUpgrade(u, n.cfg.DesiredUpgrades) {
		case UpgradeInvalid:
			return scp.ValueInvalid
		case UpgradeValid:
			if n.cfg.Governing {
				fullyValid = false
			}
		}
	}

	if slot != uint64(n.last.LedgerSeq)+1 {
		// We cannot fully judge values for ledgers we have not reached.
		return scp.ValueMaybeValid
	}
	ts, known := n.txsets[sv.TxSetHash]
	if !known {
		// The tx set may still be in flight; acceptable but not votable.
		return scp.ValueMaybeValid
	}
	// The set must build on the tip and fit the ledger's operation cap,
	// which honest proposers apply with SurgePrice.
	if ts.PrevLedgerHash != n.last.Hash() || ts.NumOperations() > n.state.MaxTxSetSize {
		return scp.ValueInvalid
	}
	if !fullyValid {
		return scp.ValueMaybeValid
	}
	return scp.ValueFullyValid
}

// CombineCandidates implements the §5.3 composition rule.
func (d *driver) CombineCandidates(slot uint64, candidates []scp.Value) scp.Value {
	n := d.node()
	svs := make([]*StellarValue, 0, len(candidates))
	for _, c := range candidates {
		if sv, err := DecodeValue(c); err == nil {
			svs = append(svs, sv)
		}
	}
	if len(svs) == 0 {
		return nil
	}
	combined := CombineValues(svs, func(h stellarcrypto.Hash) (int, int64, bool) {
		ts, ok := n.txsets[h]
		if !ok {
			return 0, 0, false
		}
		return ts.NumOperations(), int64(ts.TotalFees()), true
	})
	if combined.TxSetHash.Zero() {
		// No candidate's tx set is known locally; fall back to the first
		// candidate's hash so the composite stays applicable elsewhere.
		combined.TxSetHash = svs[0].TxSetHash
	}
	return combined.Encode()
}

// EmitEnvelope floods the envelope and counts it (§7.2's messages/ledger).
func (d *driver) EmitEnvelope(env *scp.Envelope) {
	n := d.node()
	n.record(env.Slot, func(r *SlotRecord) { r.EnvelopesEmitted++ })
	n.ins.envEmitted.With(stmtLabel(env.Statement.Type)).Inc()
	n.ov.BroadcastEnvelopeCtx(env, n.slotCtx(env.Slot))
}

// SignEnvelope signs with the validator key.
func (d *driver) SignEnvelope(env *scp.Envelope) {
	env.Signature = d.node().cfg.Keys.Secret.Sign(env.SigningPayload())
}

// VerifyEnvelope checks the sender's signature; the node ID is the public
// key address, so no registry is needed. Verification goes through the
// node's cache: SCP re-delivers the same envelope along multiple flood
// paths and re-examines statements across rounds, so repeats are common
// and the cache collapses each replay to a hash lookup.
func (d *driver) VerifyEnvelope(env *scp.Envelope) bool {
	pk, err := envelopeKey(env)
	if err != nil {
		return false
	}
	return d.node().verifier.Verify(pk, env.SigningPayload(), env.Signature)
}

// SetTimer (re)arms a per-slot timer on the simulated clock.
func (d *driver) SetTimer(slot uint64, kind scp.TimerKind, delay time.Duration, cb func()) {
	n := d.node()
	key := timerKey{slot, kind}
	if t := n.timers[key]; t != nil {
		t.Cancel()
	}
	if cb == nil {
		delete(n.timers, key)
		return
	}
	n.timers[key] = n.net.After(n.addr, delay, cb)
}

// NominationTimeout returns the configured or default policy.
func (d *driver) NominationTimeout(round int) time.Duration {
	if f := d.node().cfg.NominationTimeout; f != nil {
		return f(round)
	}
	return scp.DefaultNominationTimeout(round)
}

// BallotTimeout returns the configured or default policy.
func (d *driver) BallotTimeout(counter uint32) time.Duration {
	if f := d.node().cfg.BallotTimeout; f != nil {
		return f(counter)
	}
	return scp.DefaultBallotTimeout(counter)
}

// ValueExternalized hands the decision to the herder.
func (d *driver) ValueExternalized(slot uint64, v scp.Value) {
	d.node().onExternalized(slot, v)
}

// StartedBallot records the first prepare for nomination latency (§7.3).
func (d *driver) StartedBallot(slot uint64, b scp.Ballot) {
	n := d.node()
	now, first := n.net.Now(), false
	n.record(slot, func(r *SlotRecord) {
		if first = !r.Prepared(); first {
			r.FirstPrepare = now
		}
		r.BallotsStarted++
	})
	if first {
		n.traceFirstPrepare(slot)
	}
	n.ins.ballots.Inc()
}

// AcceptedCommit marks the point after which the slot's value is fixed.
func (d *driver) AcceptedCommit(slot uint64, b scp.Ballot) {
	n := d.node()
	now := n.net.Now()
	n.record(slot, func(r *SlotRecord) { r.AcceptCommit = now })
	n.traceAcceptCommit(slot)
	n.log.Debug("accepted commit", "slot", slot, "counter", b.Counter)
}

// Timeout counts nomination and ballot timer expiries (Fig 8).
func (d *driver) Timeout(slot uint64, kind scp.TimerKind) {
	n := d.node()
	n.record(slot, func(r *SlotRecord) {
		if kind == scp.TimerNomination {
			r.NominationTimeouts++
		} else {
			r.BallotTimeouts++
		}
	})
	n.ins.timeouts.With(timerLabel(kind)).Inc()
}

// NominationConfirmed marks the first confirmed candidate.
func (d *driver) NominationConfirmed(slot uint64) {
	n := d.node()
	now := n.net.Now()
	n.record(slot, func(r *SlotRecord) { r.CandidateConfirmed = now })
}

// NominationRoundStarted counts nomination rounds: round 1 at the trigger,
// then one per timeout escalation of the leader set.
func (d *driver) NominationRoundStarted(slot uint64, round int) {
	n := d.node()
	n.record(slot, func(r *SlotRecord) { r.NominationRounds++ })
	n.ins.nomRounds.Inc()
}
