package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"stellar/internal/fba"
	"stellar/internal/qconfig"
	"stellar/internal/quorum"
)

// cmdFbas is the §6.2 misconfiguration detector: it reads a network's
// quorum configuration as JSON — organizations with a quality tier,
// synthesized by the Figure 6 rules (see -example), or a "nodes" map of
// explicit quorum sets ({"threshold", "validators", "inner_sets"}) — checks
// quorum intersection, printing disjoint-quorum witnesses when it fails,
// and runs the criticality analysis. It returns the exit code: 0 when
// quorums intersect and no organization is critical, 1 when they do not
// or one is, 2 on a usage or input error.
//
//	stellar-obs fbas -example | stellar-obs fbas -config -
func cmdFbas(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fbas", flag.ExitOnError)
	file := fs.String("config", "", "path to quorum configuration JSON ('-' for stdin)")
	example := fs.Bool("example", false, "print an example configuration (the §7.2 tier-one orgs) and exit")
	skipCritical := fs.Bool("no-critical", false, "skip the criticality analysis")
	fs.Parse(args)

	if *example {
		fmt.Fprintln(stdout, exampleFBAS)
		return 0
	}
	bad := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "fbas: "+format+"\n", args...)
		return 2
	}
	var raw []byte
	var err error
	switch *file {
	case "":
		return bad("-config required (try -example)")
	case "-":
		raw, err = io.ReadAll(stdin)
	default:
		raw, err = os.ReadFile(*file)
	}
	if err != nil {
		return bad("read config: %v", err)
	}
	var cfg fbasFile
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return bad("parse config: %v", err)
	}

	qsets := make(fba.QuorumSets)
	var orgs []quorum.Org
	switch {
	case len(cfg.Orgs) > 0:
		qc := qconfig.Config{}
		for _, o := range cfg.Orgs {
			q, err := qconfig.ParseQuality(o.Quality)
			if err != nil {
				return bad("org %s: %v", o.Name, err)
			}
			org := qconfig.Organization{Name: o.Name, Quality: q}
			for _, v := range o.Validators {
				org.Validators = append(org.Validators, fba.NodeID(v))
			}
			qc.Orgs = append(qc.Orgs, org)
		}
		qsets, err = qc.QuorumSets()
		if err != nil {
			return bad("synthesize: %v", err)
		}
		synth, _ := qc.Synthesize()
		fmt.Fprintf(stdout, "synthesized quorum set (Figure 6 rules):\n  %s\n\n", synth.String())
		for _, o := range qc.Orgs {
			orgs = append(orgs, quorum.Org{Name: o.Name, Validators: o.Validators})
		}
	case len(cfg.Nodes) > 0:
		for id, jq := range cfg.Nodes {
			q := jq.quorumSet()
			if err := q.Validate(); err != nil {
				return bad("node %s: %v", id, err)
			}
			qsets[fba.NodeID(id)] = &q
		}
		orgs = quorum.GroupByPrefix(qsets)
	default:
		return bad("config has neither orgs nor nodes")
	}

	fmt.Fprintf(stdout, "checking %d nodes...\n", len(qsets))
	start := time.Now()
	res := quorum.CheckIntersection(qsets)
	fmt.Fprintf(stdout, "quorum intersection: %s (%v)\n", res, time.Since(start).Round(time.Millisecond))
	if !res.Intersects && res.HasQuorum {
		fmt.Fprintf(stdout, "  witness 1: %s\n  witness 2: %s\n", res.Disjoint1, res.Disjoint2)
		return 1
	}
	if *skipCritical {
		return 0
	}
	start = time.Now()
	rep := quorum.CheckCriticality(qsets, orgs)
	if rep.AnyCritical() {
		fmt.Fprintf(stdout, "CRITICAL organizations (one misconfiguration from divergence): %v (%v)\n",
			rep.Critical, time.Since(start).Round(time.Millisecond))
		return 1
	}
	fmt.Fprintf(stdout, "criticality: no organization is one misconfiguration from divergence (%d checks, %v)\n",
		rep.Checks, time.Since(start).Round(time.Millisecond))
	return 0
}

type fbasFile struct {
	Orgs []struct {
		Name       string   `json:"name"`
		Quality    string   `json:"quality"`
		Validators []string `json:"validators"`
	} `json:"orgs"`
	Nodes map[string]jsonQSet `json:"nodes"`
}

type jsonQSet struct {
	Threshold  int        `json:"threshold"`
	Validators []string   `json:"validators"`
	InnerSets  []jsonQSet `json:"inner_sets"`
}

func (j jsonQSet) quorumSet() fba.QuorumSet {
	q := fba.QuorumSet{Threshold: j.Threshold}
	for _, v := range j.Validators {
		q.Validators = append(q.Validators, fba.NodeID(v))
	}
	for _, in := range j.InnerSets {
		q.InnerSets = append(q.InnerSets, in.quorumSet())
	}
	return q
}

const exampleFBAS = `{
  "orgs": [
    {"name": "sdf",        "quality": "high", "validators": ["sdf-0", "sdf-1", "sdf-2"]},
    {"name": "satoshipay", "quality": "high", "validators": ["satoshipay-0", "satoshipay-1", "satoshipay-2"]},
    {"name": "lobstr",     "quality": "high", "validators": ["lobstr-0", "lobstr-1", "lobstr-2"]},
    {"name": "coinqvest",  "quality": "high", "validators": ["coinqvest-0", "coinqvest-1", "coinqvest-2"]},
    {"name": "keybase",    "quality": "high", "validators": ["keybase-0", "keybase-1", "keybase-2"]}
  ]
}`
