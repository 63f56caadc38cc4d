package scp

import (
	"fmt"
	"time"

	"stellar/internal/fba"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
)

// Test harness: N SCP nodes joined by a simnet, with a driver that signs
// with real ed25519 keys, validates everything, and combines candidates by
// highest hash.

type testDriver struct {
	net    *simnet.Network
	addr   simnet.Addr
	peers  []simnet.Addr
	kp     stellarcrypto.KeyPair
	keys   map[fba.NodeID]stellarcrypto.PublicKey
	node   *Node
	harn   *harness
	outs   map[uint64]Value
	nTmo   time.Duration
	bTmo   time.Duration
	sent   int
	faulty func(env *Envelope, to simnet.Addr) *Envelope // nil = honest
}

func (d *testDriver) ValidateValue(slot uint64, v Value) ValidationLevel {
	if len(v) == 0 {
		return ValueInvalid
	}
	if d.harn != nil && d.harn.validateHook != nil {
		return d.harn.validateHook(d.node.ID(), v)
	}
	return ValueFullyValid
}

func (d *testDriver) CombineCandidates(slot uint64, candidates []Value) Value {
	var best Value
	for _, c := range candidates {
		if best == nil || best.Hash().Less(c.Hash()) {
			best = c
		}
	}
	return best
}

func (d *testDriver) EmitEnvelope(env *Envelope) {
	d.sent++
	for _, p := range d.peers {
		if p == d.addr {
			continue
		}
		out := env
		if d.faulty != nil {
			out = d.faulty(env, p)
			if out == nil {
				continue
			}
		}
		d.net.Send(d.addr, p, out, out.WireSize())
	}
}

func (d *testDriver) SignEnvelope(env *Envelope) {
	env.Sign(d.kp.Secret.Sign)
}

func (d *testDriver) VerifyEnvelope(env *Envelope) bool {
	pk, ok := d.keys[env.Node]
	if !ok {
		return false
	}
	return pk.Verify(env.SigningPayload(), env.Signature)
}

func (d *testDriver) SetTimer(slot uint64, kind TimerKind, delay time.Duration, cb func()) {
	key := [2]uint64{slot, uint64(kind)}
	if t := d.harn.timers[d.addr][key]; t != nil {
		t.Cancel()
	}
	if cb == nil {
		return
	}
	d.harn.timers[d.addr][key] = d.net.After(d.addr, delay, cb)
}

func (d *testDriver) NominationTimeout(round int) time.Duration {
	return d.nTmo * time.Duration(round+1)
}

func (d *testDriver) BallotTimeout(counter uint32) time.Duration {
	return d.bTmo * time.Duration(counter+1)
}

func (d *testDriver) ValueExternalized(slot uint64, v Value) {
	if prev, ok := d.outs[slot]; ok && !prev.Equal(v) {
		panic("externalized twice with different values")
	}
	d.outs[slot] = v
}

type harness struct {
	net     *simnet.Network
	ids     []fba.NodeID
	nodes   map[fba.NodeID]*Node
	drivers map[fba.NodeID]*testDriver
	timers  map[simnet.Addr]map[[2]uint64]*simnet.Timer
	// validateHook, when set, overrides value validation on all nodes
	// (receiving the validating node's ID and the value).
	validateHook func(fba.NodeID, Value) ValidationLevel
}

// newHarness builds n nodes; qsetFor returns each node's quorum set.
func newHarness(n int, seed int64, qsetFor func(i int, all []fba.NodeID) fba.QuorumSet) *harness {
	h := &harness{
		net:     simnet.New(seed),
		nodes:   make(map[fba.NodeID]*Node),
		drivers: make(map[fba.NodeID]*testDriver),
		timers:  make(map[simnet.Addr]map[[2]uint64]*simnet.Timer),
	}
	h.net.SetLatency(simnet.UniformLatency(5*time.Millisecond, 15*time.Millisecond))
	kps := stellarcrypto.DeterministicKeyPairs("scp-test", n)
	keys := make(map[fba.NodeID]stellarcrypto.PublicKey)
	var addrs []simnet.Addr
	for i := 0; i < n; i++ {
		id := fba.NodeID(fmt.Sprintf("node-%02d", i))
		h.ids = append(h.ids, id)
		keys[id] = kps[i].Public
		addrs = append(addrs, simnet.Addr(id))
	}
	networkID := stellarcrypto.HashBytes([]byte("test network"))
	for i, id := range h.ids {
		d := &testDriver{
			net:   h.net,
			addr:  simnet.Addr(id),
			peers: addrs,
			kp:    kps[i],
			keys:  keys,
			harn:  h,
			outs:  make(map[uint64]Value),
			nTmo:  200 * time.Millisecond,
			bTmo:  200 * time.Millisecond,
		}
		node, err := NewNode(id, qsetFor(i, h.ids), networkID, d)
		if err != nil {
			panic(err)
		}
		d.node = node
		h.nodes[id] = node
		h.drivers[id] = d
		h.timers[simnet.Addr(id)] = make(map[[2]uint64]*simnet.Timer)
		h.net.AddNode(simnet.Addr(id), simnet.HandlerFunc(func(from simnet.Addr, msg any, size int) {
			env := msg.(*Envelope)
			_ = node.Receive(env)
		}))
	}
	return h
}

func majorityAll(i int, all []fba.NodeID) fba.QuorumSet { return fba.Majority(all...) }

// nominateAll has every node nominate its own distinct value for the slot.
func (h *harness) nominateAll(slot uint64) {
	for i, id := range h.ids {
		v := Value(fmt.Sprintf("value-from-%s-%d", id, i))
		h.nodes[id].Nominate(slot, v)
	}
}

// nominateAllExcept is nominateAll skipping the given node indices.
func (h *harness) nominateAllExcept(slot uint64, except ...int) {
	skip := map[int]bool{}
	for _, e := range except {
		skip[e] = true
	}
	for i, id := range h.ids {
		if skip[i] {
			continue
		}
		v := Value(fmt.Sprintf("value-from-%s-%d", id, i))
		h.nodes[id].Nominate(slot, v)
	}
}

// resendAll re-broadcasts every node's latest envelopes (what the overlay's
// anti-entropy does in the full system).
func (h *harness) resendAll(slot uint64) {
	for _, id := range h.ids {
		if !h.nodes[id].HasSlot(slot) {
			continue
		}
		for _, env := range h.nodes[id].Slot(slot).LatestEnvelopes() {
			h.drivers[id].EmitEnvelope(env)
		}
	}
}

// externalizedValues returns slot decisions per node (nil where undecided).
func (h *harness) externalizedValues(slot uint64) map[fba.NodeID]Value {
	out := make(map[fba.NodeID]Value)
	for _, id := range h.ids {
		out[id] = h.drivers[id].outs[slot]
	}
	return out
}

// agreeCount returns how many nodes externalized, checking all values agree.
func (h *harness) agreeCount(slot uint64) (int, error) {
	var ref Value
	count := 0
	for _, id := range h.ids {
		v := h.drivers[id].outs[slot]
		if v == nil {
			continue
		}
		count++
		if ref == nil {
			ref = v
		} else if !ref.Equal(v) {
			return count, fmt.Errorf("divergence: %s vs %s", ref, v)
		}
	}
	return count, nil
}
