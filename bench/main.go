// Command bench is the repository's benchmark: it builds cmd/stellar-node,
// boots a real-TCP quorum of node processes per workload, drives payments
// through POST /transactions from this one process, checks the outputs, and
// reports the end-to-end metrics and the per-layer budget named in
// BENCHMARK.json. See README.md in this directory.
//
// The driver's form, one run of one workload (run from the repo root):
//
//	bash bench/run.sh --workload pay_steady --seed 1 --seconds 16 --trace 0
//
// Without --workload it runs all four, traced, and prints the full report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// buildDir holds everything a run leaves behind that is not a report:
// the node binary, the go build cache (set by run.sh) and the run's node
// data dirs. It is inside the checkout because the benchmark may write
// nowhere else, and it is what the driver names CARGO_TARGET_DIR.
const buildDir = ".bench_build"

// runSeconds is BENCHMARK.json's run_seconds: the driver makes 4 + 22 runs
// per workload inside 3420 s, so a whole run — build check, boot, fund,
// warm-up, window, drain, teardown — has about 33 s.
const runSeconds = 16

func main() {
	// Children carry a parent-death signal, which Linux ties to the thread
	// that forked them: keep main on one thread for the whole run.
	runtime.LockOSThread()

	name := flag.String("workload", "", "workload to run (default: all four, traced, with the full report)")
	seed := flag.Int64("seed", 1, "workload seed: picks sources, destinations and amounts")
	seconds := flag.Int("seconds", runSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = also run the traced layer replay and the restart epilogue, and report the per-layer metrics")
	replayOnly := flag.Bool("replay", false, "run only the traced layer replay")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *spec {
		if err := writeSpec(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	ws := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		ws = []workload{w}
	}
	if _, err := os.Stat(filepath.Join("cmd", "stellar-node")); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}

	opt := options{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1 || *name == "" || *replayOnly,
		live:   !*replayOnly,
	}
	if opt.live {
		bin, err := buildNode()
		if err != nil {
			fatal(err)
		}
		opt.bin = bin
	}

	ok := true
	var reports []*report
	for _, w := range ws {
		rep, err := runWorkload(w, opt)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		reports = append(reports, rep)
		ok = ok && rep.Correct
	}
	switch {
	case *replayOnly, *name == "":
		for _, rep := range reports {
			printRun(os.Stdout, rep)
		}
		if !*replayOnly {
			if err := writeFullReport(reports, opt); err != nil {
				fatal(err)
			}
		}
	default:
		printRun(os.Stderr, reports[0])
		// The driver's contract: one JSON object as the last line of stdout.
		line, err := json.Marshal(reports[0].driverLine(*trace == 1))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// buildNode compiles cmd/stellar-node from the checkout the benchmark runs
// in. Build time is outside every metric.
func buildNode() (string, error) {
	bin := filepath.Join(buildDir, "bin", "stellar-node")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/stellar-node")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building stellar-node: %w", err)
	}
	return bin, nil
}

// runDir makes a fresh directory for one run's node data.
func runDir(w workload) (string, error) {
	dir := filepath.Join(buildDir, "run-"+w.Name+"-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
