// tracecheck validates a Chrome trace-event JSON file (the
// Object Format that Perfetto and chrome://tracing load): every event
// must be well-formed, every span's parent link must resolve, and every
// flow arrow must have both endpoints. With -lifecycle it additionally
// requires the full transaction lifecycle of the paper's §6 figures —
// at least one transaction whose submit → pending → consensus → applied
// chain, and the slot/balloting/apply phase tree it links to, are all
// present and parented correctly.
//
// With -cluster the file must be a merged multi-process trace (the
// stellar-obs merge output): spans from at least two processes, every
// remote_parent reference resolving to a span in the file, and at least
// one flow arrow whose endpoints sit in different processes — the proof
// that trace context actually crossed the TCP overlay.
//
// Usage:
//
//	stellar-obs tracecheck out.json
//	stellar-obs tracecheck -lifecycle out.json
//	stellar-obs tracecheck -cluster cluster-trace.json
//
// It exits 1 on the first violation and 2 on a usage error.

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"stellar/internal/obs"
)

// event is one trace-event record; unknown fields are tolerated (the
// format is extensible) but the known ones are type-checked by decoding.
type event struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   *float64          `json:"ts"`
	Dur  *float64          `json:"dur"`
	Pid  *int              `json:"pid"`
	Tid  *int              `json:"tid"`
	Cat  string            `json:"cat"`
	ID   string            `json:"id"`
	Args map[string]string `json:"args"`
}

type traceFile struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}

func cmdTracecheck(args []string) {
	fs := flag.NewFlagSet("tracecheck", flag.ExitOnError)
	lifecycle := fs.Bool("lifecycle", false,
		"require a complete parent-linked tx lifecycle (submit through archive)")
	cluster := fs.Bool("cluster", false,
		"require a merged multi-process trace with resolved cross-process links")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: stellar-obs tracecheck [-lifecycle] [-cluster] trace.json")
		os.Exit(2)
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		fail("not valid trace JSON: %v", err)
	}

	spans := 0
	nameByID := map[string]string{} // span id → name
	pidByID := map[string]int{}     // span id → process id
	parentOf := map[string]string{} // span id → parent span id
	remoteOf := map[string]string{} // span id → remote (cross-process) parent id
	flows := map[string][2]int{}    // flow id → {#s, #f}
	flowPids := map[string][2]int{} // flow id → {s pid, f pid}
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Name == "" {
				fail("event %d: X event with no name", i)
			}
			if ev.Ts == nil || ev.Dur == nil || *ev.Dur < 0 || *ev.Ts < 0 {
				fail("event %d (%s): X event needs ts ≥ 0 and dur ≥ 0", i, ev.Name)
			}
			if ev.Pid == nil || ev.Tid == nil {
				fail("event %d (%s): X event needs pid and tid", i, ev.Name)
			}
			id := ev.Args["id"]
			if id == "" {
				fail("event %d (%s): X event has no args.id", i, ev.Name)
			}
			if prev, dup := nameByID[id]; dup {
				fail("event %d (%s): span id %s already used by %q", i, ev.Name, id, prev)
			}
			nameByID[id] = ev.Name
			pidByID[id] = *ev.Pid
			if p := ev.Args["parent"]; p != "" {
				parentOf[id] = p
			}
			if rp := ev.Args["remote_parent"]; rp != "" {
				remoteOf[id] = rp
			}
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				fail("event %d: unknown metadata event %q", i, ev.Name)
			}
		case "s", "f":
			if ev.ID == "" {
				fail("event %d: flow event with no id", i)
			}
			if ev.Pid == nil {
				fail("event %d: flow event with no pid", i)
			}
			c := flows[ev.ID]
			p := flowPids[ev.ID]
			if ev.Ph == "s" {
				c[0]++
				p[0] = *ev.Pid
			} else {
				c[1]++
				p[1] = *ev.Pid
			}
			flows[ev.ID] = c
			flowPids[ev.ID] = p
		default:
			fail("event %d: unexpected phase %q", i, ev.Ph)
		}
	}

	// Referential integrity: parents resolve, flows are paired. Parent
	// links must stay inside one process — cross-process continuation is
	// remote_parent's job.
	for id, p := range parentOf {
		if _, ok := nameByID[p]; !ok {
			fail("span %s (%s): parent %s does not exist", id, nameByID[id], p)
		}
		if pidByID[p] != pidByID[id] {
			fail("span %s (%s): parent %s lives in pid %d, span in pid %d — use remote_parent",
				id, nameByID[id], p, pidByID[p], pidByID[id])
		}
	}
	for id, c := range flows {
		if c[0] != 1 || c[1] != 1 {
			fail("flow %s: %d starts and %d finishes, want 1 and 1", id, c[0], c[1])
		}
	}

	if *lifecycle {
		checkLifecycle(nameByID, parentOf)
	}
	if *cluster {
		checkCluster(nameByID, pidByID, remoteOf, flowPids)
	}
	fmt.Printf("tracecheck: ok — %d spans, %d parent links, %d flows (%d events)\n",
		spans, len(parentOf), len(flows), len(tf.TraceEvents))
}

// checkCluster enforces the merged-trace invariants: spans from at least
// two processes, every remote_parent resolving inside the file, and at
// least one flow arrow crossing a process boundary.
func checkCluster(nameByID map[string]string, pidByID map[string]int, remoteOf map[string]string, flowPids map[string][2]int) {
	pids := map[int]bool{}
	for _, pid := range pidByID {
		pids[pid] = true
	}
	if len(pids) < 2 {
		fail("cluster: spans from %d process(es), want ≥ 2", len(pids))
	}
	if len(remoteOf) == 0 {
		fail("cluster: no remote_parent links — trace context never crossed the wire")
	}
	crossRemote := 0
	for id, rp := range remoteOf {
		if _, ok := nameByID[rp]; !ok {
			fail("cluster: span %s (%s): remote_parent %s resolves to no span in the merged trace",
				id, nameByID[id], rp)
		}
		if pidByID[rp] != pidByID[id] {
			crossRemote++
		}
	}
	if crossRemote == 0 {
		fail("cluster: every remote_parent resolved within one process — no cross-process continuation")
	}
	crossFlows := 0
	for _, p := range flowPids {
		if p[0] != p[1] {
			crossFlows++
		}
	}
	if crossFlows == 0 {
		fail("cluster: no flow arrow crosses a process boundary")
	}
	fmt.Printf("tracecheck: cluster ok — %d processes, %d cross-process remote parents, %d cross-process flows\n",
		len(pids), crossRemote, crossFlows)
}

// lifecycleParents maps each lifecycle phase to its required parent span
// name, mirroring the span tree the herder emits.
var lifecycleParents = map[string]string{
	obs.SpanTxSubmit:    obs.SpanTx,
	obs.SpanTxPending:   obs.SpanTx,
	obs.SpanTxConsensus: obs.SpanTx,
	obs.SpanTxApplied:   obs.SpanTx,
	obs.SpanNomination:  obs.SpanSlot,
	obs.SpanBalloting:   obs.SpanSlot,
	obs.SpanApply:       obs.SpanSlot,
	obs.SpanPrepare:     obs.SpanBalloting,
	obs.SpanCommit:      obs.SpanBalloting,
	obs.SpanSigPrepass:  obs.SpanApply,
	obs.SpanTxApply:     obs.SpanApply,
	obs.SpanBucketMerge: obs.SpanApply,
	obs.SpanArchive:     obs.SpanApply,
}

func checkLifecycle(nameByID, parentOf map[string]string) {
	count := map[string]int{}
	for _, name := range nameByID {
		count[name]++
	}
	if count[obs.SpanTx] == 0 {
		fail("lifecycle: no %q root spans in trace", obs.SpanTx)
	}
	if count[obs.SpanSlot] == 0 {
		fail("lifecycle: no %q spans in trace", obs.SpanSlot)
	}
	for phase, wantParent := range lifecycleParents {
		if count[phase] == 0 {
			fail("lifecycle: no %q spans in trace", phase)
		}
		ok := false
		for id, name := range nameByID {
			if name != phase {
				continue
			}
			if p, linked := parentOf[id]; linked && nameByID[p] == wantParent {
				ok = true
				break
			}
		}
		if !ok {
			fail("lifecycle: no %q span is parented to a %q span", phase, wantParent)
		}
	}
	fmt.Printf("tracecheck: lifecycle ok — every phase present and parent-linked (%d tx roots, %d slots)\n",
		count[obs.SpanTx], count[obs.SpanSlot])
}
