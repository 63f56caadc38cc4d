package timeseries_test

import (
	"runtime"
	"testing"
	"time"

	"stellar/internal/fba"
	"stellar/internal/herder"
	"stellar/internal/horizon"
	"stellar/internal/obs"
	"stellar/internal/obs/flight"
	"stellar/internal/obs/slo"
	"stellar/internal/obs/timeseries"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
	"stellar/internal/transport"
)

// nodeRegistry is the registry of a running stellar-node: a validator that
// has closed a few ledgers, its horizon server, its transport, and the
// runtime and tracer series.
func nodeRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	net := simnet.New(1)
	nid := stellarcrypto.HashBytes([]byte("ring-bytes"))
	kp := stellarcrypto.KeyPairFromString("ring-bytes-validator")
	node, err := herder.New(net, herder.Config{
		Keys:           kp,
		QSet:           fba.Majority(fba.NodeIDFromPublicKey(kp.Public)),
		NetworkID:      nid,
		LedgerInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	genesis, _ := herder.GenesisState(nid)
	node.Bootstrap(genesis, 0)
	node.Start()
	net.RunFor(5 * time.Second)
	if node.LastHeader().LedgerSeq < 3 {
		t.Fatalf("setup: closed %d ledgers", node.LastHeader().LedgerSeq)
	}
	reg := node.Obs().Reg
	obs.RegisterRuntimeMetrics(reg)
	obs.RegisterTracerMetrics(reg, nil)
	horizon.New(node, nid)
	loop := transport.NewLoop()
	mgr, err := transport.NewManager(loop, transport.Config{ListenAddr: "127.0.0.1:0", Keys: kp, NetworkID: nid, Obs: node.Obs()})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	loop.Close()
	return reg
}

func heapBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRingBytesPerSample puts a number on the detection stack's memory: a
// sample of a stellar-node's registry is one point per family, whatever the
// label cardinality, so a full DefaultCapacity ring is bounded by the family
// count. The figures are DESIGN's "What a validator holds in RAM" rows.
func TestRingBytesPerSample(t *testing.T) {
	reg := nodeRegistry(t)
	fams := reg.Snapshot()
	hists := 0
	for _, f := range fams {
		if f.Kind == obs.KindHistogram {
			hists++
		}
	}
	if len(fams) < 45 {
		t.Fatalf("setup: the registry has %d families, a stellar-node registers about 50", len(fams))
	}

	// The registry holds about what a snapshot of it copies: every family,
	// child and bucket count.
	heapBytes()
	snaps := make([][]obs.FamilySnapshot, 16)
	before := heapBytes()
	for i := range snaps {
		snaps[i] = reg.Snapshot()
	}
	registry := (heapBytes() - before) / uint64(len(snaps))
	runtime.KeepAlive(snaps)

	ring := timeseries.New(0)
	before = heapBytes()
	for i := 0; i < timeseries.DefaultCapacity; i++ {
		ring.Observe(time.Duration(i)*time.Second, reg.Snapshot())
	}
	full := heapBytes() - before
	perSample := full / timeseries.DefaultCapacity
	t.Logf("%d families (%d histograms); registry snapshot %d B; ring %d B per sample, %d KiB full (%d samples)",
		len(fams), hists, registry, perSample, full>>10, timeseries.DefaultCapacity)
	if perSample > 12<<10 {
		t.Fatalf("%d bytes per sample, want <= 12 KiB", perSample)
	}
	if full > 6<<20 {
		t.Fatalf("a full ring holds %d KiB, want <= 6 MiB", full>>10)
	}

	// The SLO engine keeps one state per rule and the flight recorder
	// nothing between dumps: both are fixed, and small.
	before = heapBytes()
	engine := slo.NewEngine(ring, slo.DefaultRules(slo.Config{LedgerInterval: time.Second, MinPeers: 1}), nil)
	rec := flight.New(flight.Config{Dir: t.TempDir(), Node: "ring-bytes", Ring: ring, Alerts: engine})
	fixed := heapBytes() - before
	t.Logf("SLO engine and flight recorder: %d B", fixed)
	if fixed > 8<<10 {
		t.Fatalf("SLO engine and flight recorder hold %d B, want <= 8 KiB", fixed)
	}
	runtime.KeepAlive(ring)
	runtime.KeepAlive(rec)
}
