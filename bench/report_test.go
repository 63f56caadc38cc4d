package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// The contract's limits on BENCHMARK.json, checked on the generated spec.
func TestSpecMeetsTheDriverContract(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 {
		t.Errorf("%d workloads", len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		check(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) < 1 || len(doc.EndToEnd) > 16 || len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(doc.EndToEnd), len(doc.PerLayer))
	}
	setup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}

	// The committed file is the generated one.
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, buf.Bytes()) {
		t.Error("BENCHMARK.json differs from `bench -spec`; regenerate it")
	}
}

// What a run reports round-trips through JSON, and the driver's line holds
// exactly the metrics the spec promises for each trace mode.
func TestReportRoundTripAndDriverLine(t *testing.T) {
	rep := &report{result: result{
		Workload: workloads[0], Seed: 4, Correct: true, Attempted: 10, Failed: 0,
		Metrics: map[string]float64{}, Counts: map[string]int{"submit_applied_ms": 10},
		Nodes: []nodeInfo{{Argv: []string{"stellar-node", "-seed", "node-0"}, CPU: 1}},
	}, Layers: []layerRow{{Layer: spanApply, Ms: 1.5}}}
	for i, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		rep.Metrics[d.Name] = float64(i) + 0.25
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("report did not round-trip:\n%s\n%s", data, again)
	}

	for _, traced := range []bool{false, true} {
		line, err := json.Marshal(rep.driverLine(traced))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
			t.Fatalf("driver line lacks a key: %s", line)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(got.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value != rep.Metrics[d.Name] {
				t.Errorf("traced=%v: metric %s = %+v", traced, d.Name, m)
			}
		}
	}
}
