package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape is one parsed GET /metrics response: series text ("name" or
// "name{labels}") to value. The nodes are measured from outside, so this
// text is the only view the benchmark has into a running layer.
type scrape map[string]float64

// parseProm reads the Prometheus text exposition format, skipping comments.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces
		// (route="GET /metrics").
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named family whose label text contains all
// of the given fragments (for example `kind="tx"`). A family with no
// matching series sums to 0: a counter that never moved is often absent.
func (s scrape) sum(name string, labels ...string) float64 {
	var total float64
series:
	for key, v := range s {
		fam, rest := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			fam, rest = key[:i], key[i:]
		}
		if fam != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// delta returns end minus start per series; a series absent at the start
// counts from 0.
func delta(start, end scrape) scrape {
	out := make(scrape, len(end))
	for k, v := range end {
		out[k] = v - start[k]
	}
	return out
}
