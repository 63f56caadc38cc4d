package transport

import (
	"fmt"
	"testing"

	"stellar/internal/obs"
	"stellar/internal/simnet"
)

// Peer identities are attacker-chosen (any keypair completing the
// handshake), so the per-peer counter labels must stay bounded: beyond
// maxPeerLabels distinct remotes, traffic collapses into the "other"
// label.
func TestPeerLabelCardinalityCap(t *testing.T) {
	reg := obs.NewRegistry()
	ins := newInstruments(reg)

	total := maxPeerLabels + 10
	for i := 0; i < total; i++ {
		id := simnet.Addr(fmt.Sprintf("GPEER%03d", i))
		pi := ins.forPeer(id)
		pi.framesIn.Inc()
	}
	// Reconnect attribution goes through the same cap: a known peer keeps
	// its label, an over-cap one lands in the overflow bucket.
	ins.reconnects.With(ins.peerLabel(simnet.Addr("GPEER000"))).Inc()
	ins.reconnects.With(ins.peerLabel(simnet.Addr("GFRESH"))).Inc()

	var frames, reconnects map[string]float64
	for _, fam := range reg.Snapshot() {
		switch fam.Name {
		case "transport_frames_in_total", "transport_reconnects_total":
			m := make(map[string]float64, len(fam.Samples))
			for _, s := range fam.Samples {
				m[s.LabelValues[0]] = s.Value
			}
			if fam.Name == "transport_frames_in_total" {
				frames = m
			} else {
				reconnects = m
			}
		}
	}

	if len(frames) != maxPeerLabels+1 {
		t.Fatalf("frames_in has %d labels, want %d distinct peers + other", len(frames), maxPeerLabels+1)
	}
	// Everything over the cap is still counted, just under "other".
	if frames[peerOverflowLabel] != float64(total-maxPeerLabels) {
		t.Errorf("other frames = %v, want %d", frames[peerOverflowLabel], total-maxPeerLabels)
	}
	if frames["GPEER000"] != 1 {
		t.Errorf("in-cap peer lost its own label: %v", frames)
	}
	if reconnects["GPEER000"] != 1 || reconnects[peerOverflowLabel] != 1 {
		t.Errorf("reconnects attribution: %v", reconnects)
	}
	// Re-registering a known peer must not consume another slot or count
	// as overflow.
	ins.forPeer(simnet.Addr("GPEER001")).framesIn.Inc()
	if got := ins.framesIn.With(peerOverflowLabel).Value(); got != float64(total-maxPeerLabels) {
		t.Errorf("re-registering a capped-in peer counted as overflow: other = %v", got)
	}
}
