package main

import (
	"os"
	"strings"
	"testing"
)

// testdata/metrics_sample.txt is a GET /metrics response captured from
// node-0 of a 3-node quorum six ledgers after boot.
func sampleScrape(t *testing.T) scrape {
	t.Helper()
	f, err := os.Open("testdata/metrics_sample.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParsePromSample(t *testing.T) {
	s := sampleScrape(t)
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"herder_ledgers_closed_total", nil, 6},
		{"mempool_capacity", nil, 8192},
		{"scp_envelopes_emitted_total", nil, 6 + 6 + 11 + 18},
		{"scp_envelopes_emitted_total", []string{`type="prepare"`}, 18},
		{"overlay_packets_sent_total", []string{`kind="envelope"`}, 164},
		{"transport_frames_out_total", nil, 72 + 107},                                             // summed over the peer label
		{"horizon_http_requests_total", []string{`route="GET /ledgers/latest"`, `code="200"`}, 1}, // a label value with a space
		{"no_such_family", nil, 0},
		{"herder_ledgers_closed", nil, 0}, // a prefix of a family is not the family
	} {
		if got := s.sum(c.name, c.labels...); got != c.want {
			t.Errorf("sum(%s %v) = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
}

func TestDeltaCountsAbsentSeriesFromZero(t *testing.T) {
	start := sampleScrape(t)
	end := sampleScrape(t)
	end["herder_ledgers_closed_total"] += 16
	end[`scp_timeouts_total{kind="nomination"}`] = 2 // first appears inside the window
	d := delta(start, end)
	if got := d.sum("herder_ledgers_closed_total"); got != 16 {
		t.Errorf("ledgers delta = %v, want 16", got)
	}
	if got := d.sum("scp_timeouts_total", `kind="nomination"`); got != 2 {
		t.Errorf("timeouts delta = %v, want 2", got)
	}
	if got := d.sum("mempool_capacity"); got != 0 {
		t.Errorf("unchanged gauge delta = %v, want 0", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, in := range []string{"novalue\n", "name notanumber\n"} {
		if _, err := parseProm(strings.NewReader(in)); err == nil {
			t.Errorf("parseProm(%q) accepted it", in)
		}
	}
}
