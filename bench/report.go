package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric. The names are the vocabulary every
// later performance claim in this repository is made in.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
	Src    string  `json:"src,omitempty"`   // per-layer only: S scraped from node-0, R traced replay, B seen by the benchmark
	Moves  string  `json:"moves,omitempty"` // per-layer only: the end-to-end metric it should move
	On     string  `json:"on,omitempty"`    // per-layer only: the workloads where it should move
	Help   string  `json:"definition"`
}

// endToEnd are the metrics a user of the network sees. Each bound is at
// least max(10 %, 2 x the widest spread the metric showed on any workload
// over the sets of runs recorded in README.md), and at most the driver's 25 %.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "boot to ledger 3 on every node, fund the accounts through POST /transactions, every account visible on every node; excludes go build"},
	{Name: "submit_applied_ms_ledger_p50", Unit: "ms", Better: "lower", Bound: 0.20,
		Help: "submit to applied in the typical ledger: the time from when a payment was due to be sent until a client polling node-0 every 10 ms first sees the ledger holding it, as the median over the window's ledgers of each ledger's median"},
	{Name: "close_ms_p50", Unit: "ms", Better: "lower", Bound: 0.15,
		Help: "median observed gap between ledger closes on node-0: the configured 1 s interval plus nomination + balloting + apply + bucket + archive on the critical path (the paper's close time)"},
	{Name: "applied_tx_s", Unit: "1/s", Better: "higher", Bound: 0.20,
		Help: "transactions in the window's ledgers divided by the window's length: the sustained ceiling on pay_saturate, the offered rate elsewhere"},
	{Name: "node_peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25,
		Help: "largest VmHWM among the node processes at the end of the window"},
}

// perLayer is the budget: one or more metrics per module, each with the
// end-to-end metric it should move and where.
var perLayer = []metricDef{
	{Name: "horizon.submit_ms_p50", Unit: "ms", Better: "lower", Src: "B", Moves: "applied_tx_s", On: "pay_saturate", Help: "POST /transactions round trip"},
	{Name: "horizon.submit_ms_p99", Unit: "ms", Better: "lower", Src: "B", Moves: "applied_tx_s", On: "pay_saturate", Help: "POST /transactions round trip; the tail is requests that waited for the event-loop lock"},
	{Name: "horizon.refused_429", Unit: "count", Better: "lower", Src: "B", Moves: "failed_share", On: "pay_saturate", Help: "submissions refused for backpressure"},
	{Name: "horizon.refused_503", Unit: "count", Better: "lower", Src: "B", Moves: "failed_share", On: "pay_saturate", Help: "submissions refused because the node was not ready"},
	{Name: "horizon.read_ms_p50", Unit: "ms", Better: "lower", Src: "B", Moves: "close_ms_p50", On: "all", Help: "GET /ledgers/latest round trip; reads take the event-loop lock"},
	{Name: "horizon.read_ms_p99", Unit: "ms", Better: "lower", Src: "B", Moves: "close_ms_p50", On: "all", Help: "GET /ledgers/latest round trip; the tail is reads that waited out a ledger close"},
	{Name: "xdr.tx_decode_us", Unit: "us", Better: "lower", Src: "R", Moves: "node_cpu_ms_per_tx", On: "pay_steady, pay_saturate", Help: "hex + DecodeSignedTransactionXDR per transaction"},
	{Name: "xdr.tx_encode_us", Unit: "us", Better: "lower", Src: "R", Moves: "node_cpu_ms_per_tx", On: "pay_steady, pay_saturate", Help: "MarshalSignedXDR per transaction"},
	{Name: "xdr.txset_encode_us_per_tx", Unit: "us", Better: "lower", Src: "R", Moves: "node_cpu_ms_per_tx", On: "pay_steady, pay_saturate", Help: "TxSet.EncodeXDR per transaction in the set"},
	{Name: "stellarcrypto.sign_us", Unit: "us", Better: "lower", Src: "R", Moves: "node_cpu_ms_per_tx", On: "pay_steady, quorum7_light", Help: "one ed25519 signature"},
	{Name: "stellarcrypto.verify_us", Unit: "us", Better: "lower", Src: "R", Moves: "node_cpu_ms_per_tx", On: "pay_steady, quorum7_light", Help: "one ed25519 verification, no cache"},
	{Name: "verify.cold_us_per_sig", Unit: "us", Better: "lower", Src: "R", Moves: "node_cpu_ms_per_tx, close_ms_p50", On: "pay_steady; flat on batch_ops", Help: "State.CheckSignatures per signature through an empty verify cache"},
	{Name: "verify.cached_us_per_sig", Unit: "us", Better: "lower", Src: "R", Moves: "node_cpu_ms_per_tx, close_ms_p50", On: "pay_steady; flat on batch_ops", Help: "State.CheckSignatures per signature when every verdict is cached"},
	{Name: "verify.cache_hit_ratio", Unit: "ratio", Better: "higher", Src: "S", Moves: "node_cpu_ms_per_tx", On: "pay_steady; flat on batch_ops", Help: "verify cache hits / lookups on node-0"},
	{Name: "verify.checks_per_applied_tx", Unit: "count", Better: "lower", Src: "S", Moves: "node_cpu_ms_per_tx", On: "pay_steady; flat on batch_ops", Help: "verify cache lookups on node-0 per transaction it applied"},
	{Name: "mempool.add_us", Unit: "us", Better: "lower", Src: "R", Moves: "applied_tx_s", On: "pay_saturate", Help: "Pool.Add per transaction"},
	{Name: "mempool.prune_us_per_tx", Unit: "us", Better: "lower", Src: "R", Moves: "applied_tx_s", On: "pay_saturate", Help: "Pool.PruneStale per pooled transaction"},
	{Name: "mempool.evicted", Unit: "count", Better: "lower", Src: "S", Moves: "failed_share", On: "pay_saturate", Help: "fee-pressure evictions on node-0"},
	{Name: "mempool.size_end", Unit: "count", Better: "lower", Src: "S", Moves: "applied_tx_s", On: "pay_saturate", Help: "node-0 pool size at the end of the window: the backlog"},
	{Name: "ledger.check_valid_us_per_tx", Unit: "us", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "batch_ops, pay_saturate; flat on quorum7_light", Help: "State.CheckValid over the pool at the ledger trigger, per transaction"},
	{Name: "ledger.txset_hash_us_per_tx", Unit: "us", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "batch_ops, pay_saturate; flat on quorum7_light", Help: "SurgePrice + TxSet.Hash per transaction"},
	{Name: "ledger.apply_us_per_op", Unit: "us", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "batch_ops, pay_saturate; flat on quorum7_light", Help: "State.ApplyTxSet per operation"},
	{Name: "ledger.dirty_snapshot_us_per_entry", Unit: "us", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "batch_ops, pay_saturate; flat on quorum7_light", Help: "TakeDirtySnapshot per changed entry"},
	{Name: "ledger.apply_ms_per_ledger", Unit: "ms", Better: "lower", Src: "S", Moves: "close_ms_p50", On: "batch_ops, pay_saturate; flat on quorum7_light", Help: "node-0 ledger_apply_seconds per ledger"},
	{Name: "ledger.failed_txs", Unit: "count", Better: "lower", Src: "S", Moves: "failed_share", On: "all", Help: "transactions node-0 applied with a failed result"},
	{Name: "bucket.add_batch_ms_per_ledger", Unit: "ms", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "batch_ops, pay_saturate", Help: "bucket.List.AddBatch per ledger, spills included"},
	{Name: "bucket.add_batch_us_per_entry", Unit: "us", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "batch_ops, pay_saturate", Help: "bucket.List.AddBatch per changed entry"},
	{Name: "history.put_ledger_ms", Unit: "ms", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "batch_ops, pay_saturate", Help: "Archive.PutHeader + PutTxSet, real fsync"},
	{Name: "history.checkpoint_ms", Unit: "ms", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "batch_ops, pay_saturate", Help: "Archive.PutBucket for every live bucket + PutCheckpoint, real fsync"},
	{Name: "history.bytes_per_ledger", Unit: "bytes", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "batch_ops, pay_saturate", Help: "archive growth per ledger"},
	{Name: "scp.round_ms", Unit: "ms", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "quorum7_light", Help: "one in-memory N-node SCP round, nominate to all externalized, real signatures"},
	{Name: "scp.envelopes_per_round", Unit: "count", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "quorum7_light", Help: "envelopes emitted by all N nodes in that round"},
	{Name: "scp.envelopes_per_ledger", Unit: "count", Better: "lower", Src: "S", Moves: "close_ms_p50", On: "quorum7_light", Help: "envelopes node-0 emitted plus received per ledger"},
	{Name: "scp.nomination_rounds_per_ledger", Unit: "count", Better: "lower", Src: "S", Moves: "submit_applied_ms_p99", On: "quorum7_light", Help: "nomination rounds node-0 started per ledger; above 1 means timeouts"},
	{Name: "scp.nomination_timeouts", Unit: "count", Better: "lower", Src: "S", Moves: "submit_applied_ms_p99", On: "pay_steady", Help: "nomination timer expiries on node-0 in the window"},
	{Name: "scp.ballot_timeouts", Unit: "count", Better: "lower", Src: "S", Moves: "submit_applied_ms_p99", On: "pay_steady", Help: "ballot timer expiries on node-0 in the window"},
	{Name: "herder.nomination_ms_mean", Unit: "ms", Better: "lower", Src: "S", Moves: "close_ms_p50, submit_applied_ms_p99", On: "all", Help: "node-0 nomination start to first prepare, mean"},
	{Name: "herder.balloting_ms_mean", Unit: "ms", Better: "lower", Src: "S", Moves: "close_ms_p50", On: "all", Help: "node-0 first prepare to externalize, mean"},
	{Name: "herder.tx_per_ledger_mean", Unit: "count", Better: "higher", Src: "S", Moves: "applied_tx_s", On: "all", Help: "transactions per ledger on node-0"},
	{Name: "herder.stalled_closes", Unit: "count", Better: "lower", Src: "B", Moves: "submit_applied_ms_p99", On: "all", Help: "close gaps above twice the interval in the window"},
	{Name: "herder.unexplained_ms", Unit: "ms", Better: "lower", Src: "S", Moves: "close_ms_p50", On: "all", Help: "close_overhead_ms_p50 minus the nomination, balloting and apply means: the remainder row"},
	{Name: "herder.rejoin_s", Unit: "s", Better: "lower", Src: "B", Moves: "none (informational)", On: "all", Help: "restart epilogue: SIGTERM the last node, restart it on its data dir, time until it stands at node-0's tip with the same hash"},
	{Name: "overlay.tx_packets_per_tx", Unit: "count", Better: "lower", Src: "S", Moves: "node_cpu_ms_per_tx", On: "pay_steady, quorum7_light", Help: "tx packets node-0 sent per transaction it applied"},
	{Name: "overlay.bytes_per_tx", Unit: "bytes", Better: "lower", Src: "S", Moves: "node_cpu_ms_per_tx", On: "pay_steady, quorum7_light", Help: "overlay bytes node-0 sent, all kinds, per transaction it applied"},
	{Name: "overlay.envelope_packets_per_ledger", Unit: "count", Better: "lower", Src: "S", Moves: "node_cpu_ms_per_tx", On: "quorum7_light", Help: "envelope packets node-0 sent per ledger"},
	{Name: "overlay.dupes_suppressed_ratio", Unit: "ratio", Better: "lower", Src: "S", Moves: "node_cpu_ms_per_tx", On: "pay_steady, quorum7_light", Help: "deliveries dropped as duplicates / all deliveries on node-0: wasted flood work"},
	{Name: "transport.frame_encode_us", Unit: "us", Better: "lower", Src: "R", Moves: "node_cpu_ms_per_tx", On: "quorum7_light, pay_saturate", Help: "EncodePacket + AppendFrame per packet, tx and envelope packets"},
	{Name: "transport.frame_decode_us", Unit: "us", Better: "lower", Src: "R", Moves: "node_cpu_ms_per_tx", On: "quorum7_light, pay_saturate", Help: "ReadFrame + DecodePacket per packet, tx and envelope packets"},
	{Name: "transport.bytes_out_per_ledger", Unit: "bytes", Better: "lower", Src: "S", Moves: "node_cpu_ms_per_tx", On: "quorum7_light, pay_saturate", Help: "wire bytes node-0 wrote to all peers per ledger"},
	{Name: "transport.queue_sheds", Unit: "count", Better: "lower", Src: "S", Moves: "failed_share", On: "pay_saturate", Help: "outbound frames node-0 shed on a full peer queue"},
	{Name: "transport.reconnects", Unit: "count", Better: "lower", Src: "S", Moves: "submit_applied_ms_p99", On: "all", Help: "peer connections node-0 had to re-dial"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower", Src: "S", Moves: "submit_applied_ms_p99", On: "pay_saturate", Help: "node-0 stop-the-world GC pause in the window"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Src: "S", Moves: "node_cpu_ms_per_tx", On: "pay_saturate", Help: "node-0 GC cycles in the window"},
	{Name: "runtime.heap_mb_end", Unit: "MiB", Better: "lower", Src: "S", Moves: "node_peak_rss_mb", On: "pay_saturate", Help: "node-0 live heap at the end of the window"},
	{Name: "runtime.runq_wait_ms_per_s", Unit: "ms/s", Better: "lower", Src: "B", Moves: "close_ms_p50, submit_applied_ms_p99", On: "quorum7_light, pay_saturate", Help: "time the node threads spent runnable but without a CPU, per second of window: contention for the cores"},
	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower", Src: "B", Moves: "validity of every latency", On: "all", Help: "how late the generator started a request; above 50 ms the window is invalid, not slow"},
	{Name: "loadgen.late_ms_max", Unit: "ms", Better: "lower", Src: "B", Moves: "validity of every latency", On: "all", Help: "worst generator lateness"},
	// Candidates for end-to-end metrics that the driver's rules turn away;
	// README.md gives the reason for each.
	{Name: "close_overhead_ms_p50", Unit: "ms", Better: "lower", Src: "B", Moves: "close_ms_p50", On: "all", Help: "close_ms_p50 minus the configured 1 s interval: what the critical path adds"},
	{Name: "node_cpu_ms_per_tx", Unit: "ms", Better: "lower", Src: "B", Moves: "close_ms_p50, applied_tx_s", On: "pay_saturate, quorum7_light", Help: "on-CPU time of every thread of every node process over the window (/proc/<pid>/task/*/schedstat) per applied transaction"},
	{Name: "submit_applied_ms_p50", Unit: "ms", Better: "lower", Src: "B", Moves: "itself", On: "pay_steady", Help: "median of submit to applied over all the window's transactions"},
	{Name: "submit_applied_ms_p90", Unit: "ms", Better: "lower", Src: "B", Moves: "itself", On: "pay_steady", Help: "90th percentile of submit to applied"},
	{Name: "submit_applied_ms_p99", Unit: "ms", Better: "lower", Src: "B", Moves: "itself", On: "pay_steady", Help: "99th percentile of submit to applied"},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Src: "B", Moves: "itself", On: "all", Help: "(refused + transport errors + accepted-then-lost) / attempted"},
	{Name: "ops_attempted", Unit: "count", Better: "higher", Src: "B", Moves: "none", On: "all", Help: "operations submitted in the load phase"},
	{Name: "ops_failed", Unit: "count", Better: "lower", Src: "B", Moves: "failed_share", On: "all", Help: "operations of failed submissions"},
	{Name: "replay.layer_sum_ms", Unit: "ms", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "all", Help: "sum of the replayed layers on a ledger's critical path"},
	{Name: "replay.unexplained_ms", Unit: "ms", Better: "lower", Src: "R", Moves: "close_ms_p50", On: "all", Help: "live close_overhead_ms_p50 minus replay.layer_sum_ms: what the layers called in isolation do not account for"},
}

// options are what one invocation fixes for every workload it runs.
type options struct {
	bin    string
	seed   int64
	window time.Duration
	traced bool // replay + restart epilogue + per-layer report
	live   bool // false: replay only
}

// report is one workload's outcome: the live run, and with tracing the
// replayed layers.
type report struct {
	result
	Layers []layerRow `json:"layers,omitempty"` // the reconciliation table
}

// runWorkload measures one workload end to end, untraced, and then — when
// asked — replays its transactions through the layers with spans on.
func runWorkload(w workload, opt options) (*report, error) {
	rep := &report{result: result{Workload: w, Seed: opt.seed, Correct: true,
		Metrics: map[string]float64{}, Counts: map[string]int{}}}
	if opt.live {
		dir, err := runDir(w)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		run := &liveRun{w: w, seed: opt.seed, window: opt.window, rejoin: opt.traced}
		if err := run.run(opt.bin, dir); err != nil {
			return nil, err
		}
		res, err := evaluate(run)
		if err != nil {
			return nil, err
		}
		rep.result = *res
	}
	if opt.traced {
		rows, err := replay(w, opt.seed, rep.Metrics, rep.Counts)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		rep.Layers = rows
	}
	return rep, nil
}

// driverLine is the object the driver reads from the last line of stdout.
func (r *report) driverLine(traced bool) map[string]any {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.Name] = mv{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

// printRun writes every metric of one report by name and unit.
func printRun(w io.Writer, r *report) {
	fmt.Fprintf(w, "\n== %s  (seed %d, %d nodes, %.0f tx/s x %d ops, window %.2f s)\n",
		r.Workload.Name, r.Seed, r.Workload.Nodes, r.Workload.Rate, r.Workload.OpsPerTx, r.WindowSeconds)
	fmt.Fprintf(w, "   correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "   VIOLATION: %s\n", v)
	}
	if r.Invalid != "" {
		fmt.Fprintf(w, "   INVALID WINDOW, not a slow one: %s\n", r.Invalid)
	}
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			v, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			src := "e2e"
			if d.Src != "" {
				src = d.Src
			}
			fmt.Fprintf(w, "   %-3s %-40s %14.4f %s\n", src, d.Name, v, d.Unit)
		}
	}
	if len(r.Closes) > 0 {
		fmt.Fprintf(w, "   -- closes seen on node-0: seq gap_ms txs (* = in the window)\n     ")
		for _, c := range r.Closes {
			mark := ""
			if c.InWindow {
				mark = "*"
			}
			fmt.Fprintf(w, " %d%s:%.0f:%d", c.Seq, mark, c.GapMs, c.Txs)
		}
		fmt.Fprintln(w)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "   -- critical path of one ledger, replayed (ms) vs live close_overhead_ms_p50\n")
		for _, row := range r.Layers {
			fmt.Fprintf(w, "      %-34s %10.3f\n", row.Layer, row.Ms)
		}
	}
}

// provenance stamps a full report with what produced it.
type provenance struct {
	Commit     string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Generated  string `json:"generated"`
}

func output(name string, args ...string) string {
	out, err := exec.Command(name, args...).Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeFullReport stores the all-workloads report, with provenance, under
// bench/out/. BENCHMARK.json itself holds only the driver's contract.
func writeFullReport(reports []*report, opt options) error {
	doc := struct {
		Provenance    provenance  `json:"provenance"`
		Seed          int64       `json:"seed"`
		WindowSeconds float64     `json:"window_seconds"`
		WarmupSeconds float64     `json:"warmup_seconds"`
		DrainLedgers  int         `json:"drain_ledgers_max"`
		EndToEnd      []metricDef `json:"end_to_end"`
		PerLayer      []metricDef `json:"per_layer"`
		Workloads     []*report   `json:"workloads"`
	}{
		Provenance: provenance{
			Commit:     output("git", "rev-parse", "HEAD"),
			GoVersion:  runtime.Version(),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Kernel:     output("uname", "-sr"),
			Generated:  time.Now().UTC().Format(time.RFC3339),
		},
		Seed:          opt.seed,
		WindowSeconds: opt.window.Seconds(),
		WarmupSeconds: warmup.Seconds(),
		DrainLedgers:  drainLedgers,
		EndToEnd:      endToEnd,
		PerLayer:      perLayer,
		Workloads:     reports,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join("bench", "out", "report.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "\nfull report written to %s\n", path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSpec prints BENCHMARK.json: the driver's contract, generated from
// the tables above so the two cannot drift.
func writeSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, x := range workloads {
		doc.Workloads = append(doc.Workloads, wl{x.Name, x.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}
